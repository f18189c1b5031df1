#include "sched/tms.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ocs/all_stop_executor.hpp"
#include "oracles/schedule_checks.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(Tms, EmptyDemand) {
  EXPECT_EQ(tms_schedule(Matrix(4), 0.1).num_assignments(), 0);
}

TEST(Tms, RejectsNonPositiveDay) {
  // The day is 10 * delta: a zero, negative or NaN delta leaves no day.
  EXPECT_THROW(tms_schedule(Matrix(2), 0.0), std::invalid_argument);
  EXPECT_THROW(tms_schedule(Matrix(2), -0.1), std::invalid_argument);
  EXPECT_THROW(tms_schedule(Matrix(2), std::nan("")), std::invalid_argument);
}

TEST(Tms, SingleEntrySingleAssignmentWhenDayCovers) {
  Matrix d(2);
  d.at(0, 1) = 0.5;
  const CircuitSchedule s = tms_schedule(d, 0.1);  // day = 10 * delta = 1.0 >= 0.5
  ASSERT_EQ(s.num_assignments(), 1);
  EXPECT_DOUBLE_EQ(s.assignments[0].duration, 0.5);
}

TEST(Tms, LongDemandNeedsMultipleDays) {
  Matrix d(2);
  d.at(0, 1) = 2.5;
  const CircuitSchedule s = tms_schedule(d, 0.1);  // day = 1.0
  EXPECT_EQ(s.num_assignments(), 3);  // 1.0 + 1.0 + 0.5
  EXPECT_TRUE(oracle::satisfies(s, d));
}

TEST(Tms, SatisfiesRandomDemands) {
  Rng rng(221);
  for (int trial = 0; trial < 15; ++trial) {
    const Matrix d = testing::random_demand(rng, 7, 0.5, 0.2, 5.0);
    const CircuitSchedule s = tms_schedule(d, 0.05);
    EXPECT_TRUE(s.is_valid(7)) << "trial " << trial;
    EXPECT_TRUE(execute_all_stop(s, d, 0.05).satisfied) << "trial " << trial;
  }
}

TEST(Tms, LongerDaysMeanFewerAssignments) {
  Rng rng(222);
  const Matrix d = testing::random_demand(rng, 8, 0.7, 0.5, 8.0);
  // The day is 10 * delta: 0.2 against 5.0.
  EXPECT_GT(tms_schedule(d, 0.02).num_assignments(), tms_schedule(d, 0.5).num_assignments());
}

TEST(Tms, MatchingsGrabHeavyEntriesFirst) {
  Matrix d(2);
  d.at(0, 0) = 10.0;
  d.at(1, 1) = 10.0;
  d.at(0, 1) = 1.0;
  const CircuitSchedule s = tms_schedule(d, 10.0);  // one 100 s day covers everything
  ASSERT_GE(s.num_assignments(), 1);
  // First establishment is the max-weight matching: the heavy diagonal.
  EXPECT_EQ(s.assignments[0].circuits.size(), 2u);
  EXPECT_DOUBLE_EQ(s.assignments[0].duration, 10.0);
}

}  // namespace
}  // namespace reco
