#include "ocs/slice_executor.hpp"

#include <gtest/gtest.h>

#include "oracles/schedule_checks.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(SliceExecutor, CountReconfigurationsIsBatchCount) {
  const SliceSchedule s{{0, 1, 0, 0, 0}, {0, 2, 1, 1, 1}, {5, 6, 0, 0, 0}};
  EXPECT_EQ(count_reconfigurations(s), 2);  // batches at t=0 and t=5
  EXPECT_EQ(count_reconfigurations({}), 0);
}

TEST(SliceExecutor, InflateSingleBatch) {
  // One batch at t=0: every flow waits one delta, nothing halts mid-flight.
  const SliceSchedule pseudo{{0, 2, 0, 0, 0}, {0, 3, 1, 1, 1}};
  const SliceSchedule real = inflate_pseudo_time(pseudo, 0.5);
  ASSERT_EQ(real.size(), 2u);
  EXPECT_DOUBLE_EQ(real[0].start, 0.5);
  EXPECT_DOUBLE_EQ(real[0].end, 2.5);
  EXPECT_DOUBLE_EQ(real[1].start, 0.5);
  EXPECT_DOUBLE_EQ(real[1].end, 3.5);
}

TEST(SliceExecutor, MidFlightBatchHaltsFlow) {
  // Flow A spans the batch at t=1 (flow B's start): A is halted once.
  const SliceSchedule pseudo{{0, 3, 0, 0, 0}, {1, 2, 1, 1, 1}};
  const SliceSchedule real = inflate_pseudo_time(pseudo, 0.5);
  // A: starts after its own batch (0.5), ends at 3 + 2*0.5 (own + mid-flight).
  EXPECT_DOUBLE_EQ(real[0].start, 0.5);
  EXPECT_DOUBLE_EQ(real[0].end, 4.0);
  // B: waits for both batches.
  EXPECT_DOUBLE_EQ(real[1].start, 2.0);
  EXPECT_DOUBLE_EQ(real[1].end, 3.0);
}

TEST(SliceExecutor, SequentialFlowsStaySequential) {
  const SliceSchedule pseudo{{0, 2, 0, 0, 0}, {2, 4, 0, 0, 1}};
  const SliceSchedule real = inflate_pseudo_time(pseudo, 1.0);
  EXPECT_TRUE(is_port_feasible(real));
  // Second flow waits for both reconfigurations.
  EXPECT_DOUBLE_EQ(real[1].start, 4.0);
  EXPECT_GE(real[1].start, real[0].end);
}

TEST(SliceExecutor, InflationPreservesFeasibilityRandomly) {
  Rng rng(71);
  for (int trial = 0; trial < 30; ++trial) {
    // Build a random feasible pseudo schedule by sequential stacking per port.
    const int n = 4;
    std::vector<Time> free_in(n, 0.0);
    std::vector<Time> free_out(n, 0.0);
    SliceSchedule pseudo;
    for (int f = 0; f < 20; ++f) {
      const int i = rng.uniform_int(n);
      const int j = rng.uniform_int(n);
      const Time start = std::max(free_in[i], free_out[j]) + rng.uniform(0.0, 0.5);
      const Time dur = rng.uniform(0.1, 2.0);
      pseudo.push_back({start, start + dur, i, j, f % 3});
      free_in[i] = start + dur;
      free_out[j] = start + dur;
    }
    ASSERT_TRUE(is_port_feasible(pseudo)) << "trial " << trial;
    const SliceSchedule real = inflate_pseudo_time(pseudo, 0.05);
    EXPECT_TRUE(is_port_feasible(real)) << "trial " << trial;
  }
}

TEST(SliceExecutor, InflationStretchesDurationByMidFlightBatchesOnly) {
  const SliceSchedule pseudo{{0, 10, 0, 0, 0}, {2, 3, 1, 1, 1}, {5, 6, 2, 2, 2}};
  const SliceSchedule real = inflate_pseudo_time(pseudo, 1.0);
  // Flow 0 has batches at 2 and 5 mid-flight: duration 10 -> 12.
  EXPECT_DOUBLE_EQ(real[0].duration(), 12.0);
  // Flow 1 and 2 have no mid-flight batches.
  EXPECT_DOUBLE_EQ(real[1].duration(), 1.0);
  EXPECT_DOUBLE_EQ(real[2].duration(), 1.0);
}

TEST(SliceExecutor, ShortSliceOnABatchEndsAfterItStarts) {
  // A kTimeEps slice that starts on a batch waits for that batch at its
  // start, and is not halted by it again at its end.
  for (const Time t : {0.0, 0.5, 1.0, 3.0}) {
    const SliceSchedule pseudo{{t, t + kTimeEps, 0, 0, 0}, {t, t + 1.0, 1, 1, 1}};
    const SliceSchedule real = inflate_pseudo_time(pseudo, 1e-3);
    EXPECT_DOUBLE_EQ(real[0].start, t + 1e-3) << "t=" << t;
    EXPECT_DOUBLE_EQ(real[0].end, (t + kTimeEps) + 1e-3) << "t=" << t;
    EXPECT_TRUE(is_port_feasible(real)) << "t=" << t;
  }
}

TEST(SliceExecutor, InflateInStartOrderCountsRealBatches) {
  // Batches at 0 and 2 on the pseudo axis; flow 0 is halted once.
  const SliceSchedule pseudo{{2, 3, 1, 1, 1}, {0, 3, 0, 0, 0}, {0, 1, 2, 2, 2}};
  const std::vector<std::size_t> order{1, 2, 0};
  std::vector<Time> batches;
  SliceSchedule real;
  EXPECT_EQ(inflate_in_start_order(pseudo, order, 0.5, batches, real), 2);
  EXPECT_EQ(real, inflate_pseudo_time(pseudo, 0.5));
  EXPECT_EQ(count_reconfigurations(real), 2);
  EXPECT_DOUBLE_EQ(real[1].end, 4.0);  // 3 + own batch + the one at 2
}

TEST(SliceExecutor, InflateInStartOrderRejectsABadOrder) {
  const SliceSchedule pseudo{{0, 1, 0, 0, 0}, {1, 2, 1, 1, 1}};
  std::vector<Time> batches;
  SliceSchedule real;
  EXPECT_THROW(inflate_in_start_order(pseudo, {0}, 0.5, batches, real), std::invalid_argument);
  EXPECT_THROW(inflate_in_start_order(pseudo, {0, 2}, 0.5, batches, real),
               std::invalid_argument);
}

TEST(SliceExecutor, AnalyzeScheduleAggregates) {
  const SliceSchedule s{{0, 2, 0, 0, 0}, {0, 5, 1, 1, 1}, {6, 7, 0, 0, 1}};
  const oracle::MultiExecutionStats stats = oracle::analyze_schedule(s, 2);
  EXPECT_DOUBLE_EQ(stats.cct[0], 2.0);
  EXPECT_DOUBLE_EQ(stats.cct[1], 7.0);
  EXPECT_EQ(stats.reconfigurations, 2);
  EXPECT_DOUBLE_EQ(stats.makespan, 7.0);
}

}  // namespace
}  // namespace reco
