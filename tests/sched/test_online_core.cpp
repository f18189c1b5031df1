// Unit tests for the incremental replan engine (OnlineCore), the policy
// names, and the decision-latency sketch — including the drain-replan
// demand-conservation property: at every commit boundary, delivered volume
// plus outstanding residual equals total submitted demand.
#include "sched/online_core.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coflow.hpp"
#include "trace/generator.hpp"

namespace reco {
namespace {

constexpr Time kInf = std::numeric_limits<Time>::infinity();

std::vector<Coflow> small_workload(std::uint64_t seed, int k = 6, int n = 8) {
  GeneratorOptions o;
  o.num_ports = n;
  o.num_coflows = k;
  o.seed = seed;
  return generate_workload(o);
}

TEST(DecisionLatencyRecorder, CountsMeanAndMax) {
  DecisionLatencyRecorder r;
  EXPECT_EQ(r.count(), 0u);
  EXPECT_DOUBLE_EQ(r.mean_us(), 0.0);
  r.record_us(3.0);
  r.record_us(5.0);
  EXPECT_EQ(r.count(), 2u);
  EXPECT_DOUBLE_EQ(r.mean_us(), 4.0);
  EXPECT_DOUBLE_EQ(r.max_us(), 5.0);
}

TEST(DecisionLatencyRecorder, QuantilesInterpolateAndClampToObservedRange) {
  DecisionLatencyRecorder r;
  // 3us lands in the (2, 4] bucket; 100us in (64, 128].  Quantiles are
  // linearly interpolated within the hit bucket (shared
  // obs::quantile_from_buckets math) and clamped to [min, max] observed.
  for (int i = 0; i < 99; ++i) r.record_us(3.0);
  r.record_us(100.0);
  EXPECT_NEAR(r.quantile_us(0.5), 2.0 + 2.0 * 50.0 / 99.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.quantile_us(0.99), 4.0);
  EXPECT_DOUBLE_EQ(r.quantile_us(1.0), 100.0);  // clamped to the observed max
  EXPECT_DOUBLE_EQ(r.min_us(), 3.0);
  EXPECT_LE(r.quantile_us(0.5), r.quantile_us(0.9));
  EXPECT_LE(r.quantile_us(0.9), r.quantile_us(1.0));
  // Every quantile stays within what was actually recorded.
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_GE(r.quantile_us(q), r.min_us());
    EXPECT_LE(r.quantile_us(q), r.max_us());
  }
}

// S2 regression: mid-flight epoch cuts must account served volume exactly
// once.  For every cut position, delivered + outstanding == submitted.
TEST(OnlineCore, DemandConservationAcrossMidFlightCuts) {
  const auto coflows = small_workload(311);
  const Time delta = 100e-6;
  for (const Time cut : {0.0, delta, 3 * delta, 20 * delta, kInf}) {
    OnlineCore core(OnlinePolicyKind::kDrainReplanRecoMul);
    for (const Coflow& c : coflows) core.submit(c);
    core.plan(0.0);
    Time now = core.commit(cut);
    EXPECT_NEAR(core.stats().delivered_total + core.outstanding(), core.stats().demand_total,
                1e-6)
        << "cut=" << cut;
    // Drain the residual set to completion: conservation must hold at
    // every subsequent commit boundary too.
    int rounds = 0;
    while (!core.idle() && rounds < 100) {
      core.plan(now);
      now += core.commit(kInf);
      EXPECT_NEAR(core.stats().delivered_total + core.outstanding(), core.stats().demand_total,
                  1e-6);
      ++rounds;
    }
    EXPECT_TRUE(core.idle()) << "cut=" << cut;
    EXPECT_EQ(core.stats().finished, coflows.size());
    EXPECT_NEAR(core.stats().delivered_total, core.stats().demand_total, 1e-6);
    EXPECT_DOUBLE_EQ(core.outstanding(), 0.0);
    for (Time cct : core.cct_by_seq()) EXPECT_GE(cct, 0.0);
  }
}

// A cancelled-but-started slice is exactly the kept prefix: committing the
// same plan twice (cut, then the rest) must not double-count any volume.
TEST(OnlineCore, CutThenResumeNeverDoubleCounts) {
  const auto coflows = small_workload(312, 4, 6);
  OnlineCore core(OnlinePolicyKind::kDrainReplanRecoMul);
  for (const Coflow& c : coflows) core.submit(c);
  const Time makespan = core.plan(0.0);
  const Time cut = makespan / 2;
  Time now = core.commit(cut);
  const Time delivered_at_cut = core.stats().delivered_total;
  EXPECT_GT(delivered_at_cut, 0.0);
  EXPECT_LT(delivered_at_cut, core.stats().demand_total + 1e-9);
  int rounds = 0;
  while (!core.idle() && rounds < 100) {
    core.plan(now);
    now += core.commit(kInf);
    ++rounds;
  }
  // Total delivered equals total demand — served-once accounting held
  // across the cut/resume boundary.
  EXPECT_NEAR(core.stats().delivered_total, core.stats().demand_total, 1e-6);
}

TEST(OnlineCore, SlotRecyclingKeepsAllocationsFlat) {
  const auto coflows = small_workload(313, 2, 6);
  OnlineCoreOptions options;
  // Soak configuration: the unbounded result buffers are the only state
  // allowed to grow with stream length, so turn them off to expose the
  // engine's own footprint.
  options.record_schedule = false;
  options.record_cct = false;
  OnlineCore core(OnlinePolicyKind::kFifoRecoSin, options);
  core.reserve(64);
  std::uint64_t allocs_after_warmup = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (const Coflow& c : coflows) core.submit(c);
    while (!core.idle()) core.step_fifo(0.0);
    if (cycle == 9) allocs_after_warmup = core.stats().alloc_events;
  }
  EXPECT_GT(core.stats().slot_reuses, 0u);
  // After warm-up every cycle reuses recycled slots and pre-grown scratch:
  // the capacity high-water mark must not move again.
  EXPECT_EQ(core.stats().alloc_events, allocs_after_warmup);
}

TEST(OnlineCore, DigestIsDeterministic) {
  const auto coflows = small_workload(314);
  auto run = [&] {
    OnlineCore core(OnlinePolicyKind::kEpochRecoMul);
    for (const Coflow& c : coflows) core.submit(c);
    core.plan(0.0);
    core.commit(kInf);
    return core.digest();
  };
  const std::uint64_t first = run();
  EXPECT_NE(first, 14695981039346656037ULL);  // something was emitted
  EXPECT_EQ(run(), first);
}

TEST(OnlineCore, PlanRejectsProtocolViolations) {
  OnlineCore fifo(OnlinePolicyKind::kFifoRecoSin);
  EXPECT_THROW(fifo.plan(0.0), std::logic_error);  // serialized policy

  OnlineCore batch(OnlinePolicyKind::kEpochRecoMul);
  EXPECT_THROW(batch.plan(0.0), std::logic_error);  // empty live set

  const auto coflows = small_workload(315, 2, 6);
  for (const Coflow& c : coflows) batch.submit(c);
  batch.plan(0.0);
  EXPECT_THROW(batch.plan(0.0), std::logic_error);  // plan outstanding
  batch.commit(kInf);
}

TEST(OnlineCore, RejectsTheLpOrdering) {
  // The interval LP orders whole coflows, not residual sets: a core asked
  // for it refuses up front instead of running BSSI under the LP's name.
  OnlineCoreOptions options;
  options.ordering = OrderingPolicy::kLp;
  for (const OnlinePolicyKind kind :
       {OnlinePolicyKind::kEpochRecoMul, OnlinePolicyKind::kFifoRecoSin,
        OnlinePolicyKind::kDrainReplanRecoMul}) {
    try {
      OnlineCore core(kind, options);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("LP ordering"), std::string::npos) << e.what();
    }
  }
  options.ordering = OrderingPolicy::kSebf;
  EXPECT_NO_THROW(OnlineCore(OnlinePolicyKind::kEpochRecoMul, options));
}

}  // namespace
}  // namespace reco
