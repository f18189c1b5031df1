// reco_serve: the online scheduler daemon from the command line.
//
// Synthesizes a Poisson coflow arrival stream (or replays a trace file)
// and pushes it through the event-driven OnlineDaemon: arrivals and epoch
// completions are typed events in the daemon's heap, the --policy decides
// when to replan the residual set and --ordering how to order it, and
// every replan reuses the warm-started matching and Reco-Mul buffers —
// zero steady-state allocation once warm.
//
//   reco_serve [--coflows=N] [--ports=P] [--gap=SEC] [--seed=N]
//              [--policy=epoch|replan|fifo] [--ordering=bssi|sebf]
//              [--delta=SEC] [--c=C] [--threads=N]
//              [--trace=FILE] [--fb] [--no-schedule] [--csv=FILE]
//              [--trace-out=FILE] [--metrics-out=FILE]
//              [--sample-every=SEC] [--metrics-port=N] [--hold=SEC]
//              [--prom-out=FILE] [--snapshot-out=FILE] [--flight-out=FILE]
//              [--checkpoint-out=FILE] [--checkpoint-every=SEC]
//              [--resume=FILE] [--stop-after=EVENTS]
//
// With --trace the arrival stream is the trace file's coflows (their
// arrival fields are honoured); otherwise the generator streams coflows
// one at a time — a 100k-coflow run never materializes the workload.
// --no-schedule drops the emitted slice list (the digest still witnesses
// every slice), which keeps memory flat for soak runs; --csv implies
// keeping it.  Output is bit-identical at every --threads value.
//
// Live telemetry (all off by default; any flag enables obs): --sample-every
// snapshots the registry on both timelines (a simulated-time sampler rides
// a recurring daemon event; a wall-clock thread ticks alongside),
// --metrics-port serves GET /metrics (Prometheus text) and GET /snapshot
// (JSON rings) on 127.0.0.1 (0 = ephemeral, port is printed), --hold keeps
// the process alive that many seconds after the run so scrapers can land,
// --prom-out / --snapshot-out write the same pages to files, and
// --flight-out arms the fault flight recorder, whose ring of recent events
// is dumped as JSONL on recovery replans or abnormal exit.
// Telemetry is write-only: schedules and digests are byte-identical with
// every flag on or off.
//
// Checkpoint/restart (docs/RELIABILITY.md): SIGINT/SIGTERM request a
// graceful shutdown — the daemon stops at the next event boundary, writes
// a final checkpoint to --checkpoint-out (if set), dumps the armed flight
// recorder, and exits 3.  --checkpoint-every=SEC additionally saves the
// checkpoint periodically (atomic tmp+rename) during the run;
// --resume=FILE restores a saved run (identical workload flags required)
// and drives it to completion — the finished report and digest are
// byte-identical to an uninterrupted run.  --stop-after=N stops
// deterministically after N scheduling events (the testable stand-in for
// a signal).
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli_args.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"
#include "sim/online_daemon.hpp"
#include "stats/csv.hpp"
#include "trace/fb_format.hpp"
#include "trace/generator.hpp"
#include "trace/serialization.hpp"

namespace {

using namespace reco;

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop_signal(int /*sig*/) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: reco_serve [--coflows=N] [--ports=P] [--gap=SEC] [--seed=N]\n"
               "                  [--policy=epoch|replan|fifo] [--ordering=bssi|sebf]\n"
               "                  [--delta=SEC] [--c=C] [--threads=N]\n"
               "                  [--trace=FILE] [--fb] [--no-schedule] [--csv=FILE]\n"
               "                  [--trace-out=FILE] [--metrics-out=FILE]\n"
               "                  [--sample-every=SEC] [--metrics-port=N] [--hold=SEC]\n"
               "                  [--prom-out=FILE] [--snapshot-out=FILE] [--flight-out=FILE]\n"
               "                  [--checkpoint-out=FILE] [--checkpoint-every=SEC]\n"
               "                  [--resume=FILE] [--stop-after=EVENTS]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli::Args args = cli::parse(
        argc, argv,
        {"coflows", "ports", "gap", "seed", "policy", "ordering", "delta", "c", "threads",
         "trace", "fb", "no-schedule", "csv", "trace-out", "metrics-out", "sample-every",
         "metrics-port", "hold", "prom-out", "snapshot-out", "flight-out", "checkpoint-out",
         "checkpoint-every", "resume", "stop-after", "help"});
    if (args.has("help")) return usage();
    args.apply_threads();
    obs::init_from_env();
    const std::string trace_out = args.get("trace-out", "");
    const std::string metrics_out = args.get("metrics-out", "");
    const std::string prom_out = args.get("prom-out", "");
    const std::string snapshot_out = args.get("snapshot-out", "");
    const std::string flight_out = args.get("flight-out", "");
    const double sample_every = args.get_double("sample-every", 0.0);
    const bool serve_metrics = args.has("metrics-port");
    const int metrics_port = args.get_int<int>("metrics-port", 0);
    const double hold_s = args.get_double("hold", 0.0);
    if (!trace_out.empty() || !metrics_out.empty() || !prom_out.empty() ||
        !snapshot_out.empty() || !flight_out.empty() || sample_every > 0.0 || serve_metrics) {
      obs::set_enabled(true);
    }
    if (!flight_out.empty()) obs::flight_recorder().arm(flight_out);

    const std::string policy_name =
        args.get_choice("policy", "replan", {"epoch", "replan", "fifo"});
    const OnlinePolicyKind policy = policy_name == "epoch"  ? OnlinePolicyKind::kEpochRecoMul
                                    : policy_name == "fifo" ? OnlinePolicyKind::kFifoRecoSin
                                                            : OnlinePolicyKind::kDrainReplanRecoMul;

    const std::string ordering_name = args.get_choice("ordering", "bssi", {"bssi", "sebf"});
    const OrderingPolicy ordering =
        ordering_name == "sebf" ? OrderingPolicy::kSebf : OrderingPolicy::kBssi;

    const std::string csv_path = args.get("csv", "");
    sim::OnlineDaemonOptions options;
    options.core.delta = args.get_double("delta", 100e-6);
    options.core.c_threshold = args.get_double("c", 4.0);
    options.core.ordering = ordering;
    options.core.record_schedule = !args.has("no-schedule") || !csv_path.empty();
    options.core.record_cct = true;
    options.sample_every = sample_every;

    const std::string checkpoint_out = args.get("checkpoint-out", "");
    const std::string resume_path = args.get("resume", "");
    options.stop_flag = &g_stop;
    options.stop_after_events = args.get_int<std::uint64_t>("stop-after", 0);
    options.checkpoint_every = args.get_double("checkpoint-every", 0.0);
    options.checkpoint_path = checkpoint_out;

    GeneratorOptions gen;
    gen.num_ports = args.get_int<int>("ports", 32);
    gen.num_coflows = args.get_int<int>("coflows", 1000);
    gen.seed = args.get_int<std::uint64_t>("seed", 20190707);
    gen.mean_interarrival = args.get_double("gap", 0.01);
    gen.delta = options.core.delta;
    gen.c_threshold = options.core.c_threshold;

    // Graceful shutdown: the daemon drains to the next event boundary, the
    // exit path below writes the final checkpoint and flight dump.
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);

    // Live telemetry rigging, before any scheduling: the wall sampler
    // thread ticks the wall-timeline ring, the HTTP endpoint serves both
    // rings plus the registry.  Neither touches scheduling state.
    std::optional<obs::WallSampler> wall;
    if (sample_every > 0.0) wall.emplace(obs::wall_sampler(), sample_every);
    obs::MetricsHttpServer server;
    if (serve_metrics) {
      server.start(metrics_port);
      std::printf("serving /metrics and /snapshot on http://127.0.0.1:%d\n", server.port());
      std::fflush(stdout);
    }

    sim::OnlineDaemonReport report;
    sim::OnlineDaemon daemon(policy, options);
    const auto drive = [&](sim::CoflowSource& source) {
      if (resume_path.empty()) return daemon.run(source);
      std::ifstream in(resume_path, std::ios::binary);
      if (!in) throw std::runtime_error("cannot open checkpoint " + resume_path);
      return daemon.resume(source, in);
    };
    std::size_t arrivals = 0;
    if (args.has("trace")) {
      int ports = 0;
      const std::vector<Coflow> coflows =
          args.has("fb") ? load_fb_trace(args.get("trace", ""), ports)
                         : load_trace(args.get("trace", ""), ports);
      arrivals = coflows.size();
      daemon.reserve(arrivals);
      sim::VectorSource source(coflows);
      report = drive(source);
    } else {
      arrivals = static_cast<std::size_t>(gen.num_coflows);
      daemon.reserve(arrivals);
      ArrivalStream stream(gen);
      sim::PullSource<ArrivalStream> source(stream);
      report = drive(source);
    }

    std::printf("reco_serve/%s (%s ordering): %zu arrivals, %llu finished, makespan %g s\n",
                policy_name.c_str(), ordering_name.c_str(), arrivals,
                static_cast<unsigned long long>(report.stats.finished), report.makespan);
    std::printf("  sum w*CCT=%g, %d reconfigs, %d epochs, %llu slices, %llu events\n",
                report.stats.total_weighted_cct, report.stats.reconfigurations,
                report.stats.epochs,
                static_cast<unsigned long long>(report.stats.emitted_slices),
                static_cast<unsigned long long>(report.events));
    std::printf("  decision latency: p50=%g us, p99=%g us, mean=%g us, max=%g us (%llu decisions)\n",
                report.decision_p50_us, report.decision_p99_us, report.decision_mean_us,
                report.decision_max_us, static_cast<unsigned long long>(report.decisions));
    std::printf("  memory: peak live=%llu, slot reuses=%llu, alloc events=%llu\n",
                static_cast<unsigned long long>(report.stats.peak_live),
                static_cast<unsigned long long>(report.stats.slot_reuses),
                static_cast<unsigned long long>(report.stats.alloc_events));
    std::printf("  replay digest: %016llx\n", static_cast<unsigned long long>(report.digest));
    if (obs::enabled()) {
      obs::sync_trace_dropped();
      std::printf("  trace events dropped: %llu\n",
                  static_cast<unsigned long long>(obs::tracer().dropped()));
    }

    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
        return 1;
      }
      write_slices_csv(out, daemon.core().schedule());
      std::printf("wrote %zu slices to %s\n", daemon.core().schedule().size(), csv_path.c_str());
    }
    if (!trace_out.empty()) {
      obs::save_trace_json(trace_out);
      std::printf("wrote %zu trace events to %s\n", obs::tracer().size(), trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      obs::save_metrics_csv(metrics_out);
      std::printf("wrote metrics to %s\n", metrics_out.c_str());
    }
    if (hold_s > 0.0) {
      std::printf("holding %g s for scrapers\n", hold_s);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::duration<double>(hold_s));
    }
    wall.reset();  // join the wall thread and close its final window
    if (!prom_out.empty()) {
      obs::save_prometheus(prom_out);
      std::printf("wrote Prometheus exposition to %s\n", prom_out.c_str());
    }
    if (!snapshot_out.empty()) {
      obs::save_snapshot_json(snapshot_out);
      std::printf("wrote time-series snapshot to %s\n", snapshot_out.c_str());
    }
    if (report.checkpoints_written > 0) {
      std::printf("  wrote %llu periodic checkpoints to %s\n",
                  static_cast<unsigned long long>(report.checkpoints_written),
                  checkpoint_out.c_str());
    }
    if (report.interrupted) {
      if (!checkpoint_out.empty()) {
        std::ofstream out(checkpoint_out, std::ios::binary | std::ios::trunc);
        if (!out) throw std::runtime_error("cannot open checkpoint " + checkpoint_out);
        daemon.save_checkpoint(out);
        out.flush();
        if (!out) throw std::runtime_error("checkpoint write failed for " + checkpoint_out);
        std::printf("interrupted at %llu events: checkpoint written to %s\n",
                    static_cast<unsigned long long>(report.events), checkpoint_out.c_str());
      } else {
        std::printf("interrupted at %llu events (no --checkpoint-out; progress discarded)\n",
                    static_cast<unsigned long long>(report.events));
      }
      if (obs::enabled()) {
        obs::flight_recorder().record("graceful_shutdown", report.makespan,
                                      static_cast<std::int64_t>(report.events));
        obs::flight_recorder().trigger("reco_serve graceful shutdown");
      }
      return 3;
    }
    const bool complete = report.stats.finished == report.stats.submitted;
    return complete ? 0 : 1;
  } catch (const cli::FlagError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    if (obs::enabled()) {
      obs::flight_recorder().record("abnormal_exit", 0.0, -1, 0.0, e.what());
      obs::flight_recorder().trigger("reco_serve abnormal exit");
    }
    return 1;
  }
}
