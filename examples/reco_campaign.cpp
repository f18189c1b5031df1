// reco_campaign: Monte-Carlo reliability campaigns from the command line
// (docs/RELIABILITY.md).
//
//   reco_campaign [--policies=replan,wait,hybrid] [--mtbf=LIST] [--mttr=LIST]
//                 [--reps=N] [--seed=N] [--ports=P] [--coflows=N]
//                 [--delta=SEC] [--c=C] [--hybrid-deadline=SEC]
//                 [--setup-timeout=P] [--crosspoint=P] [--threads=N]
//                 [--resamples=B] [--confidence=F]
//                 [--json=FILE] [--csv=FILE] [--cells-csv=FILE]
//                 [--checkpoint=FILE] [--checkpoint-every=REPS] [--resume]
//                 [--stop-after=REPS] [--flight-prefix=PREFIX]
//                 [--metrics-out=FILE]
//
// The campaign sweeps every listed recovery policy over the cartesian
// MTBF x MTTR grid, running --reps paired replications per cell on the
// thread pool, and prints per-cell availability aggregates (mean and
// p50/p99 with bootstrap confidence intervals).  Replications are pure
// functions of (config, index): the report — including the aggregate
// digest — is byte-identical across --threads values and checkpoint/
// resume.  --checkpoint-every=K saves the checkpoint atomically every K
// completed replications; --stop-after=K exits with status 3 once at
// least K replications have completed (the kill point for the CI
// kill-and-resume test); --resume continues a saved campaign (the config
// flags must match — the checkpoint carries a fingerprint and refuses
// foreign configs).  --flight-prefix replays each anomalous replication
// (demand stranded at termination) with the flight recorder armed and
// dumps "<prefix>rep<index>.jsonl".
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "cli_args.hpp"
#include "obs/obs.hpp"

namespace {

using namespace reco;

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Comma-separated doubles of `--flag`, each item parsed strictly.
std::vector<double> split_doubles(const cli::Args& args, const std::string& flag,
                                  const std::string& fallback) {
  std::vector<double> out;
  for (const std::string& item : split_list(args.get(flag, fallback))) {
    out.push_back(cli::parse_double("--" + flag, item));
  }
  return out;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: reco_campaign [--policies=replan,wait,hybrid] [--mtbf=LIST] [--mttr=LIST]\n"
      "                     [--reps=N] [--seed=N] [--ports=P] [--coflows=N]\n"
      "                     [--delta=SEC] [--c=C] [--hybrid-deadline=SEC]\n"
      "                     [--setup-timeout=P] [--crosspoint=P] [--threads=N]\n"
      "                     [--resamples=B] [--confidence=F]\n"
      "                     [--json=FILE] [--csv=FILE] [--cells-csv=FILE]\n"
      "                     [--checkpoint=FILE] [--checkpoint-every=REPS] [--resume]\n"
      "                     [--stop-after=REPS] [--flight-prefix=PREFIX]\n"
      "                     [--metrics-out=FILE]\n");
  return 2;
}

void save_checkpoint_atomic(const campaign::CampaignRunner& runner, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp);
    runner.save_checkpoint(out);
    out.flush();
    if (!out) throw std::runtime_error("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("rename failed for " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli::Args args = cli::parse(
        argc, argv,
        {"policies", "mtbf", "mttr", "reps", "seed", "ports", "coflows", "delta", "c",
         "hybrid-deadline", "setup-timeout", "crosspoint", "threads", "resamples", "confidence",
         "json", "csv", "cells-csv", "checkpoint", "checkpoint-every", "resume", "stop-after",
         "flight-prefix", "metrics-out", "help"});
    if (args.has("help")) return usage();
    args.apply_threads();
    obs::init_from_env();
    const std::string metrics_out = args.get("metrics-out", "");
    if (!metrics_out.empty()) obs::set_enabled(true);

    campaign::CampaignConfig config;
    config.ports = args.get_int<int>("ports", 24);
    config.coflows = args.get_int<int>("coflows", 8);
    config.delta = args.get_double("delta", 100e-6);
    config.c_threshold = args.get_double("c", 4.0);
    config.seed = args.get_int<std::uint64_t>("seed", 1);
    config.replications = args.get_int<int>("reps", 64);
    config.hybrid_deadline = args.get_double("hybrid-deadline", 0.02);
    config.setup_timeout_probability = args.get_double("setup-timeout", 0.0);
    config.crosspoint_failure_probability = args.get_double("crosspoint", 0.0);
    config.bootstrap.resamples = args.get_int<int>("resamples", 1000);
    config.bootstrap.confidence = args.get_double("confidence", 0.95);
    config.flight_prefix = args.get("flight-prefix", "");

    for (const std::string& name : split_list(args.get("policies", "replan,wait,hybrid"))) {
      config.policies.push_back(campaign::parse_policy(name));
    }
    const std::vector<double> mtbf = split_doubles(args, "mtbf", "0.05");
    const std::vector<double> mttr = split_doubles(args, "mttr", "0.01");
    for (const double b : mtbf) {
      for (const double r : mttr) config.grid.push_back({b, r});
    }

    campaign::CampaignRunner runner(config);
    const std::string checkpoint_path = args.get("checkpoint", "");
    const auto checkpoint_every = args.get_int<std::size_t>("checkpoint-every", 0);
    const auto stop_after = args.get_int<std::size_t>("stop-after", 0);

    if (args.has("resume")) {
      if (checkpoint_path.empty()) {
        std::fprintf(stderr, "--resume requires --checkpoint=FILE\n");
        return usage();
      }
      std::ifstream in(checkpoint_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot open checkpoint %s\n", checkpoint_path.c_str());
        return 1;
      }
      runner.load_checkpoint(in);
      std::printf("resumed campaign from %s: %zu/%zu replications done\n",
                  checkpoint_path.c_str(), runner.completed(), runner.total());
    }

    // Wave size: checkpoint cadence if set, else everything that is left.
    // --stop-after caps the target; reaching it mid-campaign exits 3.
    const std::size_t target =
        stop_after > 0 ? std::min(runner.total(), stop_after) : runner.total();
    while (runner.completed() < target) {
      std::size_t wave = target - runner.completed();
      if (checkpoint_every > 0) wave = std::min(wave, checkpoint_every);
      runner.run(wave);
      if (!checkpoint_path.empty()) save_checkpoint_atomic(runner, checkpoint_path);
    }

    const campaign::CampaignReport report = runner.report();
    std::printf("campaign: %llu/%llu replications, %llu anomalies, digest %016llx\n",
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.total),
                static_cast<unsigned long long>(report.anomalies),
                static_cast<unsigned long long>(report.digest));
    for (const campaign::CellSummary& cell : report.cells) {
      std::printf(
          "  %-6s mtbf=%-8g mttr=%-8g n=%llu  stranded mean=%g [%g, %g]  "
          "degraded p99=%g  delivered mean=%g  replans=%g  anomalies=%llu\n",
          campaign::policy_name(cell.policy), cell.fault.mtbf, cell.fault.mttr,
          static_cast<unsigned long long>(cell.completed), cell.stranded.mean,
          cell.stranded.mean_lo, cell.stranded.mean_hi, cell.degraded_time.p99,
          cell.delivered_fraction.mean, cell.replans_mean,
          static_cast<unsigned long long>(cell.anomalies));
    }

    const std::string json_path = args.get("json", "");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) throw std::runtime_error("cannot open " + json_path);
      campaign::write_report_json(report, out);
      std::printf("wrote report to %s\n", json_path.c_str());
    }
    const std::string csv_path = args.get("csv", "");
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      if (!out) throw std::runtime_error("cannot open " + csv_path);
      campaign::write_replications_csv(report, out);
      std::printf("wrote %llu replication rows to %s\n",
                  static_cast<unsigned long long>(report.completed), csv_path.c_str());
    }
    const std::string cells_path = args.get("cells-csv", "");
    if (!cells_path.empty()) {
      std::ofstream out(cells_path);
      if (!out) throw std::runtime_error("cannot open " + cells_path);
      campaign::write_cells_csv(report, out);
      std::printf("wrote %zu cell rows to %s\n", report.cells.size(), cells_path.c_str());
    }
    if (!metrics_out.empty()) {
      obs::save_metrics_csv(metrics_out);
      std::printf("wrote metrics to %s\n", metrics_out.c_str());
    }

    if (!runner.finished()) {
      std::printf("stopped after %zu/%zu replications (checkpoint %s)\n", runner.completed(),
                  runner.total(),
                  checkpoint_path.empty() ? "not saved" : checkpoint_path.c_str());
      return 3;
    }
    return 0;
  } catch (const cli::FlagError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
