#include "sched/rotornet.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ocs/all_stop_executor.hpp"
#include "oracles/schedule_checks.hpp"
#include "sched/reco_sin.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(Rotornet, EmptyDemand) {
  EXPECT_EQ(rotornet_schedule(Matrix(4), 0.1).num_assignments(), 0);
}

TEST(Rotornet, RejectsBadSlot) {
  // The slot is 10 * delta: a zero, negative or NaN delta leaves no slot.
  EXPECT_THROW(rotornet_schedule(Matrix(2), 0.0), std::invalid_argument);
  EXPECT_THROW(rotornet_schedule(Matrix(2), -0.1), std::invalid_argument);
  EXPECT_THROW(rotornet_schedule(Matrix(2), std::nan("")), std::invalid_argument);
}

TEST(Rotornet, CoversUniformDemandInOneCycle) {
  Matrix d(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) d.at(i, j) = 0.5;
  }
  const CircuitSchedule s = rotornet_schedule(d, 0.1);  // slot = 10 * delta = 1.0 >= every entry
  EXPECT_EQ(s.num_assignments(), 3);  // one rotation per offset
  EXPECT_TRUE(oracle::satisfies(s, d));
}

TEST(Rotornet, MultipleCyclesForLargeEntries) {
  Matrix d(2);
  d.at(0, 1) = 2.5;
  const CircuitSchedule s = rotornet_schedule(d, 0.1);  // slot = 1.0
  EXPECT_EQ(s.num_assignments(), 3);  // 1 + 1 + 0.5, only offset r=1 kept
  EXPECT_TRUE(oracle::satisfies(s, d));
}

TEST(Rotornet, SatisfiesRandomDemands) {
  Rng rng(611);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix d = testing::random_demand(rng, 6, 0.5, 0.2, 4.0);
    const CircuitSchedule s = rotornet_schedule(d, 0.1);
    EXPECT_TRUE(s.is_valid(6)) << "trial " << trial;
    EXPECT_TRUE(execute_all_stop(s, d, 0.1).satisfied) << "trial " << trial;
  }
}

TEST(Rotornet, ObliviousnessCostsWhenDemandSpansAllRotations) {
  // Entries engineered so every rotor offset carries exactly one small
  // flow: the rotor pays a reconfiguration per offset (8 of them) while
  // Reco-Sin covers the same demand with tau = 2 matchings.
  const int n = 8;
  Matrix d(n);
  for (int i = 0; i < n; ++i) d.at(i, (2 * i) % n) = 0.2;
  const Time delta = 0.1;
  const ExecutionResult rotor = execute_all_stop(rotornet_schedule(d, delta), d, delta);
  const ExecutionResult reco = execute_all_stop(reco_sin(d, delta), d, delta);
  ASSERT_TRUE(rotor.satisfied && reco.satisfied);
  EXPECT_EQ(rotor.reconfigurations, n);
  // Reco-Sin needs at most rho'/delta = 4 establishments here, usually tau = 2.
  EXPECT_LE(reco.reconfigurations, 4);
  EXPECT_GT(rotor.cct, 1.5 * reco.cct);
}

TEST(Rotornet, NearRecoSinOnUniformDemand) {
  // Dense uniform demand is the rotor's best case.
  Matrix d(6);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) d.at(i, j) = 1.0;
  }
  const Time delta = 0.1;
  const ExecutionResult rotor = execute_all_stop(rotornet_schedule(d, delta), d, delta);
  const ExecutionResult reco = execute_all_stop(reco_sin(d, delta), d, delta);
  ASSERT_TRUE(rotor.satisfied && reco.satisfied);
  EXPECT_LE(rotor.cct, 1.2 * reco.cct);
}

}  // namespace
}  // namespace reco
