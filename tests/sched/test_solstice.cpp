#include "sched/solstice.hpp"

#include <gtest/gtest.h>

#include "ocs/all_stop_executor.hpp"
#include "oracles/schedule_checks.hpp"
#include "sched/reco_sin.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(Solstice, EmptyDemand) {
  EXPECT_EQ(solstice(Matrix(3)).num_assignments(), 0);
}

TEST(Solstice, PowerOfTwoEntriesSliceExactly) {
  Matrix d(2);
  d.at(0, 0) = 4.0;
  d.at(0, 1) = 4.0;
  d.at(1, 0) = 4.0;
  d.at(1, 1) = 4.0;
  const CircuitSchedule s = solstice(d);
  EXPECT_TRUE(oracle::satisfies(s, d));
  // Stuffing is a no-op (already doubly stochastic at 8); two slices of 4.
  EXPECT_EQ(s.num_assignments(), 2);
  for (const auto& a : s.assignments) EXPECT_DOUBLE_EQ(a.duration, 4.0);
}

TEST(Solstice, SlicesAreHalvingThresholds) {
  Rng rng(111);
  const Matrix d = testing::random_demand(rng, 6, 0.6, 0.5, 9.0);
  const CircuitSchedule s = solstice(d);
  EXPECT_TRUE(oracle::satisfies(s, d));
  // Durations never increase along the schedule (threshold only halves),
  // except possibly in the exact-cleanup tail of tolerance-scale slices.
  double prev = std::numeric_limits<double>::infinity();
  for (const auto& a : s.assignments) {
    if (a.duration < 1e-6) break;  // cleanup tail
    EXPECT_LE(a.duration, prev + 1e-9);
    prev = a.duration;
  }
}

TEST(Solstice, SatisfiesRandomDemands) {
  Rng rng(112);
  for (int trial = 0; trial < 15; ++trial) {
    const Matrix d = testing::random_demand(rng, 8, 0.4, 0.3, 12.0);
    const CircuitSchedule s = solstice(d);
    EXPECT_TRUE(s.is_valid(8)) << "trial " << trial;
    EXPECT_TRUE(execute_all_stop(s, d, 0.01).satisfied) << "trial " << trial;
  }
}

TEST(Solstice, NeedsMoreReconfigurationsThanRecoSinOnRaggedDemands) {
  // The paper's Fig. 4(a) effect: ragged (non-aligned) entries force
  // Solstice into many binary slices while Reco-Sin aligns them to delta.
  Rng rng(113);
  const Time delta = 1.0;
  int solstice_wins = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix d = testing::random_demand(rng, 8, 0.8, 2.0, 40.0);
    const ExecutionResult rs = execute_all_stop(reco_sin(d, delta), d, delta);
    const ExecutionResult so = execute_all_stop(solstice(d), d, delta);
    ASSERT_TRUE(rs.satisfied && so.satisfied);
    if (so.reconfigurations > rs.reconfigurations) ++solstice_wins;
  }
  EXPECT_GE(solstice_wins, 8);  // overwhelmingly more reconfigs for Solstice
}

}  // namespace
}  // namespace reco
