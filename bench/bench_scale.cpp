// N-sweep benchmarks for the decomposition stack at N >= 1024 ports: the
// scale twin of bench_micro_kernels.  Where the micro suite sweeps
// density at N <= 128, this one holds nnz roughly constant (~8k edges)
// while N grows 256 -> 4096: the regime where per-round costs that scale
// with N rather than with the support dominate.
//
// Row groups:
//   * BM_ThresholdMatchingSparse — Hopcroft-Karp at scale (the /1024/125
//     row is the dense outlier).
//   * BM_PeelSequential — full-schedule kFirstMatching BvN decomposition
//     of a stuffed input (tracking row, not gated).
//   * BM_RecoSinPlan / BM_SolsticePlan — whole-planner cost vs fabric
//     width (folded in from the retired bench_scalability binary).
//   * BM_RecoveryReplan — one campaign-shaped recovery replan: build a
//     SurvivingCursor and take its first pull (tracking row, not gated).
//   * BM_PacketSchedule — Reco-Mul's packet list scheduling (S_p) of one
//     300-coflow batch at Table I's density mix.
//   * BM_OnlineDaemonStream — streamed arrivals through the event-driven
//     daemon; the million-coflow soak variant compiles in only with
//     -DRECO_BENCH_SOAK=ON (see bench/CMakeLists.txt).
//
// `--baseline_json=FILE` writes BENCH_scale.json; CI's perf-guard-scale
// step gates BM_RecoSinPlan/128/* and BM_PacketSchedule/* against the
// committed copy.  Timing comes from the shared harness in bench_util.hpp (0.05 s
// min time x 3 repetitions, median recorded).
#define RECO_BENCH_WITH_GBENCH
#include <array>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bench_util.hpp"
#include "bvn/bvn.hpp"
#include "bvn/stuffing.hpp"
#include "core/support_index.hpp"
#include "matching/hopcroft_karp.hpp"
#include "sched/ordering.hpp"
#include "sched/packet_scheduler.hpp"
#include "sched/reco_sin.hpp"
#include "sched/solstice.hpp"
#include "sim/online_daemon.hpp"
#include "trace/generator.hpp"
#include "trace/rng.hpp"

namespace {

using namespace reco;

Matrix sparse_random(int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.uniform(0.0, 1.0) < density) m.at(i, j) = rng.uniform(0.5, 10.0);
    }
  }
  return m;
}

Matrix swept_input(const benchmark::State& state, std::uint64_t seed) {
  const int n = static_cast<int>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 1000.0;
  return sparse_random(n, density, seed + static_cast<std::uint64_t>(n) * 1000 +
                                       static_cast<std::uint64_t>(state.range(1)));
}

void report_shape(benchmark::State& state, const Matrix& m) {
  state.counters["N"] = static_cast<double>(m.n());
  state.counters["nnz"] = static_cast<double>(m.nnz());
}

/// Constant-nnz N-sweep: permille halves as N doubles, so every point
/// carries ~2k demand edges and the measured growth is the per-port (not
/// per-edge) cost.  The {1024, 125} point is the dense outlier.
void ScaleSweep(benchmark::internal::Benchmark* b) {
  b->Args({256, 31})->Args({512, 16})->Args({1024, 8})->Args({2048, 4})->Args({4096, 2});
  b->Args({1024, 125});
}

// ---- matching kernels at scale -------------------------------------------

void BM_ThresholdMatchingSparse(benchmark::State& state) {
  const SupportIndex idx(swept_input(state, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(threshold_matching(idx, 0.5).size);
  }
  report_shape(state, idx.matrix());
}
BENCHMARK(BM_ThresholdMatchingSparse)->Apply(ScaleSweep);

// ---- full BvN peel --------------------------------------------------------
//
// Args are {N, permille}.  The peel decomposes a stuffed input into a
// complete CircuitSchedule; at these shapes the schedule has thousands of
// rounds, each an O(N) coefficient scan, N index subtractions and a
// matching repair.

void BM_PeelSequential(benchmark::State& state) {
  const Matrix stuffed = stuff(swept_input(state, 4));
  int rounds = 0;
  for (auto _ : state) {
    rounds = bvn_decompose(SupportIndex(stuffed), BvnPolicy::kFirstMatching).num_assignments();
    benchmark::DoNotOptimize(rounds);
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  report_shape(state, stuffed);
}
BENCHMARK(BM_PeelSequential)->Args({512, 16})->Args({1024, 8});

// ---- whole-planner cost vs fabric width (ex-bench_scalability) -----------

void BM_RecoSinPlan(benchmark::State& state) {
  const Matrix demand = swept_input(state, 5);
  const Time delta = 0.25;
  int assigns = 0;
  for (auto _ : state) {
    assigns = reco_sin(demand, delta).num_assignments();
    benchmark::DoNotOptimize(assigns);
  }
  state.counters["assigns"] = static_cast<double>(assigns);
  report_shape(state, demand);
}
BENCHMARK(BM_RecoSinPlan)->Args({128, 600})->Args({256, 600})->Args({512, 100});

void BM_SolsticePlan(benchmark::State& state) {
  const Matrix demand = swept_input(state, 5);
  int assigns = 0;
  for (auto _ : state) {
    assigns = solstice(demand).num_assignments();
    benchmark::DoNotOptimize(assigns);
  }
  state.counters["assigns"] = static_cast<double>(assigns);
  report_shape(state, demand);
}
BENCHMARK(BM_SolsticePlan)->Args({128, 600})->Args({256, 600})->Args({512, 100});

// ---- recovery replan -------------------------------------------------------
//
// The replication of a reliability campaign: the aggregate demand of 8
// generated coflows on N ports, with one ingress and one egress port down.
// A fault usually replaces a recovery plan after a pull or two, so the row
// times what a replan costs in practice: building the SurvivingCursor
// (ingest, regularize, stuff) and its first pull.

void BM_RecoveryReplan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GeneratorOptions gen;
  gen.num_ports = n;
  gen.num_coflows = 8;
  gen.seed = 42;
  Matrix residual(n);
  for (const Coflow& c : generate_workload(gen)) residual += c.demand;
  std::vector<char> failed_in(n, 0);
  std::vector<char> failed_out(n, 0);
  failed_in[1] = 1;
  failed_out[n / 2] = 1;
  const Time delta = gen.delta;
  int circuits = 0;
  for (auto _ : state) {
    SurvivingCursor cursor(residual, failed_in, failed_out, delta);
    const std::optional<CircuitAssignment> first = cursor.next();
    circuits = first ? static_cast<int>(first->circuits.size()) : 0;
    benchmark::DoNotOptimize(circuits);
  }
  state.counters["circuits"] = static_cast<double>(circuits);
  report_shape(state, residual);
}
BENCHMARK(BM_RecoveryReplan)->Arg(24);

// ---- Reco-Mul's packet list scheduling ------------------------------------
//
// Arg is N.  One batch of 300 coflows holding Table I's density mix exactly
// (259 sparse, 15 normal, 26 dense), cut from the generator stream at seed 7
// the way the mul-batch end-to-end workload cuts its batches.  The BSSI
// order is built once; the loop times packet_schedule_into on a warm
// scratch, i.e. every flow's placement on the port timelines.

std::vector<Coflow> table1_batch(int ports, std::uint64_t seed) {
  GeneratorOptions gen;
  gen.num_ports = ports;
  gen.seed = seed;
  gen.num_coflows = 30000;  // a stream long enough to fill every quota
  ArrivalStream stream(gen);
  std::array<int, 3> left{259, 15, 26};
  std::vector<Coflow> batch;
  while (left[0] + left[1] + left[2] > 0) {
    const Coflow* c = stream.peek();
    if (c == nullptr) throw std::runtime_error("table1_batch: generator stream too short");
    int& quota = left[static_cast<std::size_t>(c->density_class())];
    if (quota > 0) {
      --quota;
      batch.push_back(*c);
      batch.back().id = static_cast<CoflowId>(batch.size() - 1);
    }
    stream.pop();
  }
  return batch;
}

void BM_PacketSchedule(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Coflow> batch = table1_batch(n, 7);
  const std::vector<int> order = order_coflows(batch, OrderingPolicy::kBssi);
  PacketScratch scratch;
  SliceSchedule out;
  for (auto _ : state) {
    packet_schedule_into(batch, order, scratch, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["N"] = static_cast<double>(n);
  state.counters["nnz"] = static_cast<double>(out.size());
}
BENCHMARK(BM_PacketSchedule)->Arg(64);

// ---- streamed arrivals through the online daemon -------------------------

void daemon_stream(benchmark::State& state, int coflows) {
  GeneratorOptions gen;
  gen.num_ports = 16;
  gen.num_coflows = coflows;
  gen.seed = 995;
  gen.mean_interarrival = 0.01;
  sim::OnlineDaemonOptions opt;
  opt.core.record_schedule = false;
  opt.core.record_cct = false;
  std::uint64_t finished = 0;
  for (auto _ : state) {
    ArrivalStream stream(gen);
    sim::PullSource<ArrivalStream> source(stream);
    sim::OnlineDaemon daemon(OnlinePolicyKind::kDrainReplanRecoMul, opt);
    daemon.reserve(1024);  // slots recycle; no need to reserve the full trace
    finished = daemon.run(source).stats.finished;
    benchmark::DoNotOptimize(finished);
  }
  state.SetItemsProcessed(state.iterations() * coflows);
  state.counters["N"] = 16.0;
  state.counters["finished"] = static_cast<double>(finished);
}

void BM_OnlineDaemonStream(benchmark::State& state) {
  daemon_stream(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_OnlineDaemonStream)->Arg(2000);

#ifdef RECO_BENCH_SOAK
// Million-coflow soak: a synthetic trace streamed one arrival at a time
// through the drain-replan Reco-Mul daemon (arrivals are generated, never
// materialized, so memory stays flat while every admit / plan / recycle
// path runs a million times).  Compiled in only with -DRECO_BENCH_SOAK=ON;
// runs for minutes, so it is pinned to a single iteration.
void BM_MillionCoflowSoak(benchmark::State& state) {
  daemon_stream(state, 1000000);
}
BENCHMARK(BM_MillionCoflowSoak)->Iterations(1)->Repetitions(1);
#endif  // RECO_BENCH_SOAK

}  // namespace

int main(int argc, char** argv) {
  // "cores" is appended by the harness itself.
  return reco::bench::gbench::run_main(argc, argv, {"nnz", "N"});
}
