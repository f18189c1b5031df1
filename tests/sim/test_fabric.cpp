#include "sim/fabric.hpp"

#include <gtest/gtest.h>

#include "ocs/all_stop_executor.hpp"
#include "ocs/not_all_stop_executor.hpp"
#include "oracles/fabric_replay.hpp"
#include "sched/ordering.hpp"
#include "sched/packet_scheduler.hpp"
#include "sched/reco_sin.hpp"
#include "sched/solstice.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco::sim {
namespace {

TEST(Fabric, ReplayMatchesHandSchedule) {
  const Matrix demand = Matrix::from_rows({{0, 5}, {3, 0}});
  CircuitSchedule s;
  s.assignments.push_back({{{0, 1}, {1, 0}}, 5.0});
  ReplayController controller(s);
  const SimulationReport r = simulate_single_coflow(controller, demand, 1.0);
  EXPECT_TRUE(r.satisfied);
  EXPECT_DOUBLE_EQ(r.cct, 6.0);
  EXPECT_EQ(r.reconfigurations, 1);
  ASSERT_EQ(r.completions.size(), 2u);
  // The 3-unit flow drains first.
  EXPECT_DOUBLE_EQ(r.completions[0].completed_at, 4.0);
  EXPECT_DOUBLE_EQ(r.completions[1].completed_at, 6.0);
  EXPECT_GT(r.events, 0u);
}

TEST(Fabric, SimultaneousCompletionsKeepCircuitOrder) {
  // One hold drains 20 equal flows at one instant.  Above 16 elements an
  // unstable sort is no longer an insertion sort, so only a stable one
  // keeps them in the order they drained: the assignment's circuit order.
  const int n = 20;
  Matrix demand(n);
  CircuitSchedule s;
  s.assignments.push_back({{}, 1.0});
  for (int i = 0; i < n; ++i) {
    const Circuit c{i, (7 * i + 3) % n};
    demand.at(c.in, c.out) = 1.0;
    s.assignments[0].circuits.push_back(c);
  }
  ReplayController controller(s);
  const SimulationReport all_stop = simulate_single_coflow(controller, demand, 0.5);
  const SimulationReport not_all_stop = oracle::simulate_not_all_stop_replay(s, demand, 0.5);
  for (const SimulationReport* r : {&all_stop, &not_all_stop}) {
    ASSERT_EQ(r->completions.size(), static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      EXPECT_EQ(r->completions[k].circuit, s.assignments[0].circuits[k]) << "completion " << k;
      EXPECT_DOUBLE_EQ(r->completions[k].completed_at, 1.5) << "completion " << k;
    }
  }
}

// Pinned at the counts the callback event queue that these simulators
// replaced dispatched: the all-stop fabric counts decisions plus holds,
// the not-all-stop replay one drain per served circuit, and the slice
// replay a start and an end per slice.
TEST(Fabric, EventCountsArePinned) {
  Rng rng(42);
  const Matrix d = testing::random_demand(rng, 8, 0.6, 0.2, 6.0);
  const Time delta = 0.1;
  const CircuitSchedule s = reco_sin(d, delta);
  ReplayController controller(s);
  const SimulationReport all_stop = simulate_single_coflow(controller, d, delta);
  EXPECT_EQ(all_stop.events, 37u);
  EXPECT_EQ(all_stop.reconfigurations, 18);
  const SimulationReport not_all_stop = oracle::simulate_not_all_stop_replay(s, d, delta);
  EXPECT_EQ(not_all_stop.events, 87u);
  EXPECT_EQ(not_all_stop.completions.size(), 32u);
  const SliceSchedule slices{{0, 2, 0, 0, 0}, {2, 3, 0, 1, 1}, {1, 4, 1, 0, 1}};
  EXPECT_EQ(oracle::simulate_slice_schedule(slices, 2, 2).events, 6u);
}

TEST(Fabric, UtilizationOnPerfectlyPackedSchedule) {
  Matrix demand(2);
  demand.at(0, 0) = 4.0;
  demand.at(1, 1) = 4.0;
  CircuitSchedule s;
  s.assignments.push_back({{{0, 0}, {1, 1}}, 4.0});
  ReplayController controller(s);
  const SimulationReport r = simulate_single_coflow(controller, demand, 1.0);
  // Each active port transmits 4 of the 5-unit horizon.
  EXPECT_NEAR(r.avg_port_utilization, 4.0 / 5.0, 1e-9);
}

// The keystone property: the event-driven fabric and the analytic all-stop
// executor are independent implementations of the same semantics and must
// agree exactly on replayed schedules.
class CrossValidation : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST_P(CrossValidation, AllStopAgreesWithAnalyticExecutor) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Matrix d = testing::random_demand(rng, 8, rng.uniform(0.2, 0.9), 0.2, 6.0);
  const Time delta = rng.uniform(0.01, 0.5);
  for (const CircuitSchedule& s : {reco_sin(d, delta), solstice(d)}) {
    ReplayController controller(s);
    const SimulationReport des = simulate_single_coflow(controller, d, delta);
    const ExecutionResult analytic = execute_all_stop(s, d, delta);
    EXPECT_EQ(des.satisfied, analytic.satisfied);
    EXPECT_EQ(des.reconfigurations, analytic.reconfigurations);
    EXPECT_NEAR(des.cct, analytic.cct, 1e-7);
    EXPECT_NEAR(des.transmission_time, analytic.transmission_time, 1e-7);
  }
}

TEST_P(CrossValidation, NotAllStopAgreesWithAnalyticExecutor) {
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  const Matrix d = testing::random_demand(rng, 7, rng.uniform(0.3, 0.8), 0.3, 5.0);
  const Time delta = rng.uniform(0.01, 0.3);
  const CircuitSchedule s = reco_sin(d, delta);
  const SimulationReport des = oracle::simulate_not_all_stop_replay(s, d, delta);
  const ExecutionResult analytic = execute_not_all_stop(s, d, delta);
  EXPECT_EQ(des.satisfied, analytic.satisfied);
  EXPECT_EQ(des.reconfigurations, analytic.reconfigurations);
  EXPECT_NEAR(des.cct, analytic.cct, 1e-7);
}

TEST(Fabric, GreedyControllerDrainsDemand) {
  Rng rng(301);
  const Matrix d = testing::random_demand(rng, 6, 0.6, 0.5, 4.0);
  GreedyMaxWeightController controller;
  const SimulationReport r = simulate_single_coflow(controller, d, 0.1);
  EXPECT_TRUE(r.satisfied);
  EXPECT_GT(r.reconfigurations, 0);
}

TEST(Fabric, AdaptiveRecoControllerDrainsDemand) {
  Rng rng(302);
  const Matrix d = testing::random_demand(rng, 6, 0.6, 0.5, 4.0);
  AdaptiveRecoController controller(0.1);
  const SimulationReport r = simulate_single_coflow(controller, d, 0.1);
  EXPECT_TRUE(r.satisfied);
}

TEST(Fabric, AdaptiveControllersRespectLemmaOneSpirit) {
  // Both adaptive policies hold each establishment for >= its planned
  // service, so reconfiguration time stays below transmission time for
  // demand-dominated inputs.
  Rng rng(303);
  const Time delta = 0.05;
  const Matrix d = testing::random_demand(rng, 6, 0.7, 10 * delta, 100 * delta);
  AdaptiveRecoController controller(delta);
  const SimulationReport r = simulate_single_coflow(controller, d, delta);
  EXPECT_LE(r.reconfiguration_time, r.transmission_time + 1e-9);
}

TEST(Fabric, SliceReplayDetectsViolations) {
  // Two overlapping slices on the same ingress port.
  const SliceSchedule bad{{0, 2, 0, 0, 0}, {1, 3, 0, 1, 1}};
  const oracle::SliceReplayReport r = oracle::simulate_slice_schedule(bad, 2, 2);
  EXPECT_EQ(r.port_violations, 1);
}

TEST(Fabric, SliceReplayAcceptsHandoffs) {
  const SliceSchedule ok{{0, 2, 0, 0, 0}, {2, 3, 0, 1, 1}};
  const oracle::SliceReplayReport r = oracle::simulate_slice_schedule(ok, 2, 2);
  EXPECT_EQ(r.port_violations, 0);
  EXPECT_DOUBLE_EQ(r.cct[0], 2.0);
  EXPECT_DOUBLE_EQ(r.cct[1], 3.0);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
}

TEST(Fabric, SliceReplayMatchesAnalyticCompletionTimes) {
  Rng rng(304);
  const auto coflows = testing::random_workload(rng, 8, 5, 0.02, 4.0);
  const SliceSchedule packet = packet_schedule(coflows, bssi_order(coflows));
  const oracle::SliceReplayReport r = oracle::simulate_slice_schedule(packet, 5, 8);
  EXPECT_EQ(r.port_violations, 0);
  const std::vector<Time> analytic = completion_times(packet, 8);
  for (int k = 0; k < 8; ++k) EXPECT_NEAR(r.cct[k], analytic[k], 1e-9);
}

}  // namespace
}  // namespace reco::sim
