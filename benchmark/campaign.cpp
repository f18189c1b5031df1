// campaign: a Monte-Carlo reliability campaign on the thread pool over
// {replan, wait, hybrid} x MTBF {0.05, 0.02} x MTTR 0.01 x 300 replications
// of a 24-port, 8-coflow fabric.  One op = CampaignRunner::run(kWave), one
// wave of replications as a checkpointing campaign runs them.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <exception>
#include <string>

#include "campaign/campaign.hpp"
#include "e2e.hpp"
#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

namespace e2e {

namespace {

using namespace reco;
using campaign::CampaignRunner;

constexpr std::size_t kWave = 30;

campaign::CampaignConfig make_config(const RunConfig& cfg) {
  campaign::CampaignConfig c;
  c.ports = 24;
  c.coflows = 8;
  c.seed = cfg.seed;
  // Replication cost follows its workload and is skewed (median ~6 ms, tail
  // ~60 ms), so the seed's set of paired workloads sets most of a run's
  // variance: one pass over many replications beats repeated short passes.
  c.replications = cfg.tiny ? 4 : 300;
  c.policies = {campaign::RecoveryPolicy::kReplan, campaign::RecoveryPolicy::kWaitForRepair,
                campaign::RecoveryPolicy::kHybrid};
  c.grid = {{0.05, 0.01}, {0.02, 0.01}};
  return c;
}

/// Busy time of the program's own obs spans inside run_one(), which the
/// driver cannot reach with calls of its own.
struct ObsLayers {
  double reco_sin_ms = 0.0;
  double surviving_ms = 0.0;
  double single_coflow_ms = 0.0;
  double peel_ms = 0.0;
  double rounds = 0.0;
  double nnz = 0.0;
};

/// The number after `key` in one trace-event line, or 0 if absent.
double field(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + std::strlen(key), nullptr);
}

/// Fold the wall-clock complete events the obs tracer holds into `t`.  The
/// tracer writes one event per line, name first.
void fold_obs_spans(ObsLayers& t) {
  std::ostringstream json;
  obs::tracer().write_chrome_json(json);
  std::istringstream lines(json.str());
  std::string line;
  constexpr char kName[] = "{\"name\":\"";
  while (std::getline(lines, line)) {
    if (line.rfind(kName, 0) != 0 || line.find("\"ph\":\"X\"") == std::string::npos ||
        line.find("\"pid\":1,") == std::string::npos) {
      continue;
    }
    const std::size_t start = sizeof(kName) - 1;
    const std::string name = line.substr(start, line.find('"', start) - start);
    const double ms = field(line, "\"dur\":") / 1e3;
    if (name == "sched.reco_sin") t.reco_sin_ms += ms;
    if (name == "sched.reco_sin_surviving") t.surviving_ms += ms;
    if (name == "sim.single_coflow") t.single_coflow_ms += ms;
    if (name == "bvn.peel") t.peel_ms += ms;
    if (name == "bvn.round") t.rounds += 1.0;
    if (name == "bvn.decompose") t.nnz += field(line, "\"nnz\":");
  }
}

}  // namespace

Result run_campaign(const RunConfig& cfg, SpanRecorder& spans) {
  Result r;
  const campaign::CampaignConfig config = make_config(cfg);
  std::unique_ptr<CampaignRunner> runner;
  // The runner and the pool it fans out over (pool workers start here).
  r.add("setup_s", median_setup_s(101, [&] {
          runner.reset();
          runtime::set_thread_count(cfg.threads);
          runtime::global_pool();
          runner = std::make_unique<CampaignRunner>(config);
        }),
        "s");

  OpTimes waves;
  campaign::CampaignReport first;
  const int passes = run_passes(cfg.trace ? 0.0 : cfg.seconds, 1, [&](int pass) {
    if (pass > 0) runner = std::make_unique<CampaignRunner>(config);
    r.attempted += runner->total();
    try {
      for (std::size_t w = 0; !runner->finished(); ++w) {
        const auto t0 = Clock::now();
        runner->run(kWave);
        waves.record(w, seconds_since(t0));
      }
      campaign::CampaignReport rep = runner->report();
      if (rep.completed != rep.total) {
        r.fail("completed " + std::to_string(rep.completed) + " of " + std::to_string(rep.total),
               rep.total - rep.completed);
      }
      r.pass_digest(pass, rep.digest);
      if (pass == 0) first = std::move(rep);
    } catch (const std::exception& e) {
      r.fail(std::string("threw: ") + e.what(), runner->total());
    }
  });

  double cct_sum = 0.0;
  double delivered_sum = 0.0;
  for (const campaign::ReplicationResult& rep : first.replications) {
    cct_sum += rep.cct;
    delivered_sum += rep.delivered_fraction;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, first.replications.size()));
  const std::vector<double> wave_s = waves.medians();
  add_op_latency(r, wave_s);
  // Waves differ in which replications they hold, and replication cost is
  // skewed; the median wave is a steadier throughput than the total.
  r.add("items_per_s", static_cast<double>(kWave) / quantile(wave_s, 0.5), "1/s");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.add("cct_mean_s", cct_sum / n, "sim_s");
  r.add("delivered_frac_mean", delivered_sum / n, "frac");
  r.count("passes", passes);
  r.count("replications", static_cast<double>(first.total));
  r.count("anomalies", static_cast<double>(first.anomalies));

  if (cfg.trace) {
    // Replications are pure functions of their index, so a serial loop of
    // run_one() reproduces run()'s digest.  Loop 1 times each call with a
    // driver span; loop 2 repeats it with the program's obs spans on.
    std::vector<double> one_ms;
    Digest d;
    for (std::size_t i = 0; i < runner->total(); ++i) {
      const int s = spans.begin("campaign.run_one", -1, static_cast<std::int64_t>(i));
      const campaign::ReplicationResult rep = runner->run_one(i);
      spans.end(s);
      one_ms.push_back(spans.duration_ms(s));
      d.add_u64(rep.digest);
    }
    const double serial_s = spans.busy_ms("campaign.run_one") / 1e3;
    if (d.value() != r.digest) r.fail("serial run_one digest differs from run()");

    ObsLayers t;
    double obs_s = 0.0;
    obs::set_enabled(true);
    for (std::size_t i = 0; i < runner->total(); ++i) {
      obs::tracer().clear();
      const auto t0 = Clock::now();
      (void)runner->run_one(i);
      obs_s += seconds_since(t0);
      fold_obs_spans(t);
    }
    obs::set_enabled(false);
    obs::tracer().clear();

    r.layer("campaign.run_one.busy_ms", 1e3 * serial_s, "ms");
    r.layer("campaign.run_one.ms_p50", quantile(one_ms, 0.5), "ms");
    r.layer("runtime.pool.efficiency", serial_s / (cfg.threads * sum(wave_s)), "frac");
    r.layer("sched.reco_sin.busy_ms", t.reco_sin_ms, "ms");
    r.layer("sched.reco_sin_surviving.busy_ms", t.surviving_ms, "ms");
    r.layer("sim.single_coflow.busy_ms", t.single_coflow_ms, "ms");
    r.layer("bvn.peel.busy_ms", t.peel_ms, "ms");
    r.layer("bvn.peel.rounds", t.rounds, "count");
    r.layer("bvn.peel.nnz", t.nnz, "count");
    r.layer("bvn.peel.ms_per_round", t.rounds > 0 ? t.peel_ms / t.rounds : 0.0, "ms");
    r.layer("trace_overhead_pct", overhead_pct(obs_s, serial_s), "%");
  }
  return r;
}

}  // namespace e2e
