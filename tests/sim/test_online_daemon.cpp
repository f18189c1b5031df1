// Event-driven daemon equivalence and steady-state behaviour.
//
// The load-bearing property: OnlineDaemon, the one online driver, drives
// OnlineCore through arrival/completion events, and `schedule_online` (the
// daemon over a VectorSource) emits exactly what the clairvoyant batch loop
// it replaced emits (tests/oracles/online_loop.hpp): every slice, every
// CCT, the stats and the digest, across policies, seeds and eps-boundary
// arrivals.  The daemon's digest is also identical across thread counts.
#include "sim/online_daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "oracles/online_loop.hpp"
#include "runtime/thread_pool.hpp"
#include "trace/generator.hpp"

namespace reco::sim {
namespace {

GeneratorOptions stream_options(std::uint64_t seed, int coflows = 30, int ports = 12,
                                Time gap = 0.01) {
  GeneratorOptions o;
  o.num_ports = ports;
  o.num_coflows = coflows;
  o.seed = seed;
  o.mean_interarrival = gap;
  return o;
}

OnlineDaemonReport run_daemon(const std::vector<Coflow>& coflows, OnlinePolicyKind kind) {
  VectorSource source(coflows);
  OnlineDaemon daemon(kind);
  daemon.reserve(coflows.size());
  return daemon.run(source);
}

class DaemonPolicyTest : public ::testing::TestWithParam<OnlinePolicyKind> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, DaemonPolicyTest,
                         ::testing::Values(OnlinePolicyKind::kEpochRecoMul,
                                           OnlinePolicyKind::kFifoRecoSin,
                                           OnlinePolicyKind::kDrainReplanRecoMul),
                         [](const auto& info) {
                           switch (info.param) {
                             case OnlinePolicyKind::kEpochRecoMul: return "EpochRecoMul";
                             case OnlinePolicyKind::kFifoRecoSin: return "FifoRecoSin";
                             case OnlinePolicyKind::kDrainReplanRecoMul: return "DrainReplan";
                           }
                           return "Unknown";
                         });

void expect_matches_loop(const std::vector<Coflow>& coflows, OnlinePolicyKind kind,
                         const std::string& label) {
  SCOPED_TRACE(label);
  const OnlineScheduleResult loop = oracle::online_loop(coflows, kind);
  const OnlineScheduleResult daemon = schedule_online(coflows, kind);
  EXPECT_EQ(daemon.digest, loop.digest);
  EXPECT_EQ(daemon.reconfigurations, loop.reconfigurations);
  EXPECT_EQ(daemon.epochs, loop.epochs);
  EXPECT_EQ(daemon.total_weighted_cct, loop.total_weighted_cct);
  EXPECT_EQ(daemon.cct, loop.cct);
  ASSERT_EQ(daemon.schedule.size(), loop.schedule.size());
  for (std::size_t k = 0; k < loop.schedule.size(); ++k) {
    EXPECT_TRUE(daemon.schedule[k] == loop.schedule[k]) << "slice " << k;
  }
}

Coflow one_flow(CoflowId id, PortId src, PortId dst, Time arrival) {
  Coflow c;
  c.id = id;
  c.demand = Matrix(2);
  c.demand.at(src, dst) = 0.01;
  c.arrival = arrival;
  return c;
}

TEST_P(DaemonPolicyTest, MatchesLoopDriverByteForByte) {
  const OnlinePolicyKind kind = GetParam();
  for (const std::uint64_t seed : {411u, 412u, 413u}) {
    expect_matches_loop(generate_workload(stream_options(seed)), kind,
                        "seed " + std::to_string(seed));
  }
  // Seed x gap sweep: from one burst to arrivals spread past each epoch.
  for (const std::uint64_t seed : {421u, 422u}) {
    for (const Time gap : {0.001, 0.005, 0.02, 0.1}) {
      expect_matches_loop(generate_workload(stream_options(seed, 20, 10, gap)), kind,
                          "seed " + std::to_string(seed) + " gap " + std::to_string(gap));
    }
  }
  expect_matches_loop(generate_workload(stream_options(414, 10, 10, 0.0)), kind,
                      "all arrivals at 0");
  // Unsorted input: CCTs must map back from admission order to input order.
  auto reversed = generate_workload(stream_options(415, 12, 10, 0.005));
  std::reverse(reversed.begin(), reversed.end());
  expect_matches_loop(reversed, kind, "reversed input");

  // Eps-spaced arrivals: all six land inside the first admission window.
  auto spaced = generate_workload(stream_options(252, 6, 8, 0.0));
  for (std::size_t k = 0; k < spaced.size(); ++k) {
    spaced[k].arrival = static_cast<Time>(k) * 0.15 * kTimeEps;
  }
  expect_matches_loop(spaced, kind, "eps-spaced arrivals");

  // Eps-boundary nudges: B arrives at, or within eps of, the end of A's
  // solo epoch, where the loop's and the daemon's admission windows meet.
  const Coflow a = one_flow(0, 0, 1, 0.0);
  const Time epoch_end = makespan(oracle::online_loop({a}, kind).schedule);
  ASSERT_GT(epoch_end, 0.0);
  for (const double nudge : {-0.5 * kTimeEps, 0.0, 0.5 * kTimeEps}) {
    expect_matches_loop({a, one_flow(1, 1, 0, epoch_end + nudge)}, kind,
                        "nudge " + std::to_string(nudge / kTimeEps) + " eps");
  }

  // Cut-boundary nudges: B's arrival cuts A's drain-replan plan mid-slice,
  // and C arrives at, or within eps of, the replan once the kept slice ends.
  const Coflow b = one_flow(1, 1, 0, 0.005);
  OnlineCore probe(OnlinePolicyKind::kDrainReplanRecoMul);
  probe.submit(a);
  probe.plan(0.0);
  const Time replan_at = probe.commit(b.arrival);
  ASSERT_GT(replan_at, b.arrival);
  for (const double nudge : {-0.5 * kTimeEps, 0.0, 0.5 * kTimeEps}) {
    expect_matches_loop({a, b, one_flow(2, 0, 1, replan_at + nudge)}, kind,
                        "cut nudge " + std::to_string(nudge / kTimeEps) + " eps");
  }
}

// Two events on one instant run in the order they were scheduled.  B
// arrives exactly when A's solo plan completes; B's arrival event was
// scheduled when A was admitted, before A's plan scheduled its completion,
// so the arrival runs first.  Under drain-replan it cuts the finished
// plan, whose orphaned completion is still dispatched and counted: one
// event more than if the completion ran first.
TEST_P(DaemonPolicyTest, SameInstantEventsRunInSchedulingOrder) {
  const OnlinePolicyKind kind = GetParam();
  const Coflow a = one_flow(0, 0, 1, 0.0);
  const Time done = run_daemon({a}, kind).makespan;  // A's completion event
  ASSERT_GT(done, 0.0);
  const std::vector<Coflow> coflows{a, one_flow(1, 1, 0, done)};
  expect_matches_loop(coflows, kind, "arrival at a completion");
  const OnlineDaemonReport r = run_daemon(coflows, kind);
  EXPECT_EQ(r.stats.finished, 2u);
  EXPECT_EQ(r.events, kind == OnlinePolicyKind::kDrainReplanRecoMul ? 5u : 4u);
}

TEST_P(DaemonPolicyTest, EmptySourceIsANoOp) {
  const std::vector<Coflow> none;
  const OnlineDaemonReport r = run_daemon(none, GetParam());
  EXPECT_EQ(r.stats.submitted, 0u);
  EXPECT_EQ(r.events, 0u);
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

TEST_P(DaemonPolicyTest, AllArrivalsAtZeroStillDrain) {
  GeneratorOptions o = stream_options(414, 10, 10, 0.0);  // every arrival at t=0
  const auto coflows = generate_workload(o);
  const OnlineDaemonReport r = run_daemon(coflows, GetParam());
  EXPECT_EQ(r.stats.finished, coflows.size());
}

// S4: every decision is a pure function of the submitted coflows, so the
// daemon replays byte-identically regardless of the runtime's thread count.
TEST_P(DaemonPolicyTest, ByteIdenticalAcrossThreadCounts) {
  const auto coflows = generate_workload(stream_options(415));
  runtime::set_thread_count(1);
  const OnlineDaemonReport serial = run_daemon(coflows, GetParam());
  runtime::set_thread_count(4);
  const OnlineDaemonReport parallel = run_daemon(coflows, GetParam());
  runtime::set_thread_count(0);  // restore default
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.stats.reconfigurations, parallel.stats.reconfigurations);
  EXPECT_DOUBLE_EQ(serial.stats.total_weighted_cct, parallel.stats.total_weighted_cct);
}

TEST(OnlineDaemon, ArrivalStreamFeedsIdenticallyToMaterializedWorkload) {
  const GeneratorOptions o = stream_options(416, 40, 10, 0.02);
  const auto coflows = generate_workload(o);
  const OnlineDaemonReport from_vector =
      run_daemon(coflows, OnlinePolicyKind::kDrainReplanRecoMul);

  ArrivalStream stream(o);
  PullSource<ArrivalStream> source(stream);
  OnlineDaemon daemon(OnlinePolicyKind::kDrainReplanRecoMul);
  daemon.reserve(o.num_coflows);
  const OnlineDaemonReport from_stream = daemon.run(source);

  EXPECT_EQ(from_stream.digest, from_vector.digest);
  EXPECT_EQ(from_stream.stats.finished, from_vector.stats.finished);
  EXPECT_EQ(stream.produced(), o.num_coflows);
}

// The tentpole's steady-state claim: once warm, a stationary arrival load
// causes zero further allocation events.  Tile the same coflow block with a
// drain gap between repetitions: every block after the first re-seats
// recycled slots and reuses pre-grown scratch, so the capacity high-water
// mark set during warm-up must never move again.  (A raw Poisson stream is
// not stationary enough for an exact-zero assertion — its concurrency and
// shape maxima keep setting records at a slowly decaying rate.)
TEST(OnlineDaemon, ZeroSteadyStateAllocationAfterWarmup) {
  const auto block = generate_workload(stream_options(417, 25, 10, 0.05));
  Time block_span = 0.0;
  for (const Coflow& c : block) block_span = std::max(block_span, c.arrival);
  const Time period = block_span + 30.0;  // idle drain between blocks

  auto tiled = [&](int blocks) {
    std::vector<Coflow> coflows;
    coflows.reserve(block.size() * static_cast<std::size_t>(blocks));
    for (int t = 0; t < blocks; ++t) {
      for (const Coflow& c : block) {
        Coflow shifted = c;
        shifted.arrival = c.arrival + t * period;
        shifted.id = c.id + t * 1000;
        coflows.push_back(shifted);
      }
    }
    return coflows;
  };

  for (const OnlinePolicyKind kind :
       {OnlinePolicyKind::kEpochRecoMul, OnlinePolicyKind::kFifoRecoSin,
        OnlinePolicyKind::kDrainReplanRecoMul}) {
    OnlineDaemonOptions opt;
    // Soak configuration: the unbounded result buffers are the only state
    // allowed to grow with stream length, so turn them off to expose the
    // engine's own footprint.
    opt.core.record_schedule = false;
    opt.core.record_cct = false;
    auto allocs = [&](int blocks) {
      const auto coflows = tiled(blocks);
      VectorSource source(coflows);
      OnlineDaemon daemon(kind, opt);
      return daemon.run(source).stats.alloc_events;
    };
    const std::uint64_t warm = allocs(4);
    EXPECT_GT(warm, 0u) << "policy " << static_cast<int>(kind);
    EXPECT_EQ(allocs(8), warm) << "policy " << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace reco::sim
