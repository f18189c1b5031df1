#include "sched/reco_sin.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/lower_bound.hpp"
#include "ocs/all_stop_executor.hpp"
#include "oracles/schedule_checks.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(RecoSin, EmptyDemand) {
  EXPECT_EQ(reco_sin(Matrix(4), 1.0).num_assignments(), 0);
}

TEST(RecoSin, RejectsNonFiniteDelta) {
  // Before the guards were NaN-proof, a NaN delta planned an empty schedule.
  Matrix m(2);
  m.at(0, 1) = 1.0;
  for (const Time delta : {std::numeric_limits<Time>::quiet_NaN(),
                           std::numeric_limits<Time>::infinity()}) {
    EXPECT_THROW(reco_sin(m, delta), std::invalid_argument) << "delta=" << delta;
  }
}

TEST(RecoSin, SingleFlow) {
  Matrix d(3);
  d.at(0, 2) = 5.0;
  const CircuitSchedule s = reco_sin(d, 1.0);
  const ExecutionResult r = execute_all_stop(s, d, 1.0);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.reconfigurations, 1);
  EXPECT_DOUBLE_EQ(r.cct, 6.0);  // delta + the flow itself (early stop at 5)
}

TEST(RecoSin, ScheduleSatisfiesDemand) {
  Rng rng(101);
  for (int trial = 0; trial < 15; ++trial) {
    const Matrix d = testing::random_demand(rng, 8, 0.5, 0.4, 10.0);
    const CircuitSchedule s = reco_sin(d, 0.1);
    EXPECT_TRUE(s.is_valid(8)) << "trial " << trial;
    EXPECT_TRUE(oracle::satisfies(s, d)) << "trial " << trial;
    EXPECT_TRUE(execute_all_stop(s, d, 0.1).satisfied) << "trial " << trial;
  }
}

TEST(RecoSin, Lemma1ReconfigurationAtMostTransmission) {
  // t'_conf <= t'_trans on the *planned* schedule: every coefficient is a
  // multiple of delta, so each assignment pays for its own reconfiguration.
  Rng rng(102);
  const Time delta = 0.05;
  for (int trial = 0; trial < 15; ++trial) {
    const Matrix d = testing::random_demand(rng, 7, 0.6, 0.2, 5.0);
    const CircuitSchedule s = reco_sin(d, delta);
    const Time planned_conf = static_cast<Time>(s.num_assignments()) * delta;
    EXPECT_LE(planned_conf, s.planned_transmission_time() + 1e-9) << "trial " << trial;
    for (const auto& a : s.assignments) EXPECT_GE(a.duration, delta - 1e-9);
  }
}

class RecoSinTheorem2 : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(DeltaSweep, RecoSinTheorem2,
                         ::testing::Values(0.01, 0.05, 0.25, 1.0, 5.0));

TEST_P(RecoSinTheorem2, ExecutedCctWithinTwiceLowerBound) {
  // Theorem 2 (T' <= 2 T*) via the certifiable surrogate T* >= rho + tau*delta:
  // executed CCT must be <= 2 * (rho + tau*delta).
  const Time delta = GetParam();
  Rng rng(103);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix d = testing::random_demand(rng, 6, 0.7, 0.3, 8.0);
    if (d.nnz() == 0) continue;
    const CircuitSchedule s = reco_sin(d, delta);
    const ExecutionResult r = execute_all_stop(s, d, delta);
    ASSERT_TRUE(r.satisfied);
    const Time lb = single_coflow_lower_bound(d, delta);
    EXPECT_LE(r.cct, 2.0 * lb + 1e-7) << "trial " << trial << " delta " << delta;
  }
}

TEST(RecoSin, FewAssignmentsOnNearUniformMatrix) {
  // A dense matrix whose entries all regularize to the same value needs
  // exactly N establishments — the best case regularization creates.
  Rng rng(105);
  Matrix d(6);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) d.at(i, j) = rng.uniform(1.01, 1.99);
  }
  const CircuitSchedule s = reco_sin(d, 2.0);  // everything regularizes to 2
  EXPECT_EQ(s.num_assignments(), 6);
}

TEST(RecoSin, MicrosecondScaleWorks) {
  Rng rng(106);
  const Time delta = 100e-6;
  const Matrix d = testing::random_demand(rng, 6, 0.5, 4 * delta, 100 * delta);
  const CircuitSchedule s = reco_sin(d, delta);
  const ExecutionResult r = execute_all_stop(s, d, delta);
  EXPECT_TRUE(r.satisfied);
  EXPECT_LE(r.cct, 2.0 * single_coflow_lower_bound(d, delta) + 1e-9);
}

}  // namespace
}  // namespace reco
