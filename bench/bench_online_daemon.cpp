// Micro-benchmarks (google-benchmark) for the online scheduler path: the
// per-decision replan cycle (the daemon's admit->order->plan->commit hot
// loop), the serialized FIFO step, and end-to-end daemon throughput over a
// streamed Poisson arrival source.  These back the online subsystem's two
// first-class numbers: p99 decision latency and steady-state allocation
// events (see docs/ONLINE.md).
//
// `--baseline_json=FILE` writes a machine-readable baseline
// (name -> {ns_per_op, p99_us, N}) plus derived headline metrics; CI's
// perf-guard gates BM_OnlineDecisionLatency against the committed
// BENCH_online.json.  Timing and reporting come from the shared harness in
// bench_util.hpp (0.05 s min time x 3 repetitions, median recorded).
#define RECO_BENCH_WITH_GBENCH
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/coflow.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"
#include "sched/online_core.hpp"
#include "sim/online_daemon.hpp"
#include "trace/generator.hpp"

namespace {

using namespace reco;

constexpr Time kInf = std::numeric_limits<Time>::infinity();

std::vector<Coflow> batch_workload(int ports, int coflows, std::uint64_t seed) {
  GeneratorOptions o;
  o.num_ports = ports;
  o.num_coflows = coflows;
  o.seed = seed;
  return generate_workload(o);
}

OnlineCoreOptions soak_options() {
  OnlineCoreOptions o;
  // Benchmark the engine, not the unbounded result buffers.
  o.record_schedule = false;
  o.record_cct = false;
  return o;
}

// ---- per-decision replan cycle -------------------------------------------
//
// One iteration = one full daemon decision on a warm core: admit a batch of
// Args{ports, batch} coflows into recycled slots, order + packet-schedule +
// Reco-Mul transform them (the plan() call the latency histogram times),
// and commit the epoch.  After warm-up the cycle allocates nothing.

void BM_OnlineDecisionLatency(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const auto block = batch_workload(ports, batch, 991);
  OnlineCore core(OnlinePolicyKind::kEpochRecoMul, soak_options());
  core.reserve(static_cast<std::size_t>(batch));
  for (auto _ : state) {
    for (const Coflow& c : block) core.submit(c);
    core.plan(0.0);
    benchmark::DoNotOptimize(core.commit(kInf));
  }
  state.counters["N"] = static_cast<double>(ports);
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["p99_us"] = core.latency().quantile_us(0.99);
  state.counters["alloc_events"] = static_cast<double>(core.stats().alloc_events);
}
BENCHMARK(BM_OnlineDecisionLatency)
    ->Args({16, 4})
    ->Args({16, 8})
    ->Args({32, 8})
    ->Args({32, 16});

// ---- serialized FIFO step ------------------------------------------------

void BM_OnlineFifoDecision(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  const auto block = batch_workload(ports, 4, 992);
  OnlineCore core(OnlinePolicyKind::kFifoRecoSin, soak_options());
  core.reserve(block.size());
  for (auto _ : state) {
    for (const Coflow& c : block) core.submit(c);
    while (!core.idle()) benchmark::DoNotOptimize(core.step_fifo(0.0));
  }
  state.counters["N"] = static_cast<double>(ports);
  state.counters["p99_us"] = core.latency().quantile_us(0.99);
  state.counters["alloc_events"] = static_cast<double>(core.stats().alloc_events);
}
BENCHMARK(BM_OnlineFifoDecision)->Arg(16)->Arg(32);

// ---- end-to-end daemon throughput ----------------------------------------
//
// One iteration = a whole daemon lifetime: Args{0} coflows streamed one at
// a time from the generator (never materialized), every arrival flowing
// through the daemon's event heap into the drain-replan policy.  items/s is
// coflows scheduled per second, daemon overhead included.

void BM_OnlineDaemonThroughput(benchmark::State& state) {
  const int coflows = static_cast<int>(state.range(0));
  GeneratorOptions gen;
  gen.num_ports = 16;
  gen.num_coflows = coflows;
  gen.seed = 993;
  gen.mean_interarrival = 0.01;
  sim::OnlineDaemonOptions opt;
  opt.core = soak_options();
  std::uint64_t finished = 0;
  for (auto _ : state) {
    ArrivalStream stream(gen);
    sim::PullSource<ArrivalStream> source(stream);
    sim::OnlineDaemon daemon(OnlinePolicyKind::kDrainReplanRecoMul, opt);
    daemon.reserve(static_cast<std::size_t>(coflows));
    finished = daemon.run(source).stats.finished;
    benchmark::DoNotOptimize(finished);
  }
  state.SetItemsProcessed(state.iterations() * coflows);
  state.counters["N"] = 16.0;
  state.counters["finished"] = static_cast<double>(finished);
}
BENCHMARK(BM_OnlineDaemonThroughput)->Arg(100)->Arg(400);

// ---- live-telemetry sampling overhead ------------------------------------
//
// The throughput benchmark above re-run with obs enabled and the sim-time
// sampler ticking every 10 ms of sim time (plus the trace ring bounded, as
// a real scrape target would run).  write_json() turns the pair into a
// "sampler_overhead_pct" baseline entry — the online counterpart of the
// micro-kernel suite's telemetry_overhead_pct.  This is a deliberately
// aggressive rate (~100 samples over the ~1 s stream, far denser than any
// scraper needs), so the entry is an upper bound for tracking, not a gate:
// the off path stays one relaxed load + branch regardless.

void BM_OnlineDaemonSampled(benchmark::State& state) {
  const int coflows = static_cast<int>(state.range(0));
  GeneratorOptions gen;
  gen.num_ports = 16;
  gen.num_coflows = coflows;
  gen.seed = 993;
  gen.mean_interarrival = 0.01;
  sim::OnlineDaemonOptions opt;
  opt.core = soak_options();
  opt.sample_every = 0.01;
  const bool was_enabled = obs::enabled();
  const std::size_t old_capacity = obs::tracer().capacity();
  obs::set_enabled(true);
  obs::tracer().set_capacity(4096);  // bound the span buffer inside the loop
  std::uint64_t finished = 0;
  for (auto _ : state) {
    ArrivalStream stream(gen);
    sim::PullSource<ArrivalStream> source(stream);
    sim::OnlineDaemon daemon(OnlinePolicyKind::kDrainReplanRecoMul, opt);
    daemon.reserve(static_cast<std::size_t>(coflows));
    finished = daemon.run(source).stats.finished;
    benchmark::DoNotOptimize(finished);
  }
  obs::set_enabled(was_enabled);
  obs::tracer().set_capacity(old_capacity);
  obs::sim_sampler().clear();
  if (!was_enabled) obs::reset();  // keep user-requested telemetry, drop ours
  state.SetItemsProcessed(state.iterations() * coflows);
  state.counters["N"] = 16.0;
  state.counters["finished"] = static_cast<double>(finished);
}
BENCHMARK(BM_OnlineDaemonSampled)->Arg(100);

// ---- baseline derived metrics --------------------------------------------

/// Headline metrics: the decision-latency p99 on the largest replan shape,
/// and the sampled-vs-plain daemon throughput delta.
std::vector<std::pair<std::string, double>> derived_metrics(
    const std::vector<bench::gbench::Row>& rows) {
  std::vector<std::pair<std::string, double>> out;
  double plain = 0.0;
  double sampled = 0.0;
  for (const auto& r : rows) {
    if (r.name == "BM_OnlineDecisionLatency/32/16") {
      const double p99 = r.counter("p99_us");
      if (p99 > 0.0) out.emplace_back("online_decision_p99_us", p99);
    } else if (r.name == "BM_OnlineDaemonThroughput/100") {
      plain = r.ns_per_op;
    } else if (r.name == "BM_OnlineDaemonSampled/100") {
      sampled = r.ns_per_op;
    }
  }
  if (plain > 0.0 && sampled > 0.0) {
    out.emplace_back("sampler_overhead_pct", 100.0 * (sampled - plain) / plain);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  return reco::bench::gbench::run_main(argc, argv, {"p99_us", "N"}, derived_metrics);
}
