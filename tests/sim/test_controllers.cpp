// Controller-specific behaviours not covered by the fabric suites.
#include <gtest/gtest.h>

#include "sched/reco_sin.hpp"
#include "sim/fabric.hpp"
#include "sim/faults.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco::sim {
namespace {

TEST(Controllers, ReplayControllerSkipsDrainedEstablishments) {
  Matrix d(2);
  d.at(0, 0) = 1.0;
  CircuitSchedule s;
  s.assignments.push_back({{{0, 0}}, 1.0});
  s.assignments.push_back({{{0, 0}}, 1.0});  // drained by the time it's offered
  ReplayController controller(s);
  const SimulationReport r = simulate_single_coflow(controller, d, 0.1);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.reconfigurations, 1);
}

TEST(Controllers, AdaptiveRecoEmitsDeltaGranularHolds) {
  Rng rng(971);
  const Time delta = 0.05;
  const Matrix d = testing::random_demand(rng, 5, 0.6, 4 * delta, 40 * delta);
  AdaptiveRecoController controller(delta);
  const SimulationReport r = simulate_single_coflow(controller, d, delta);
  EXPECT_TRUE(r.satisfied);
  // Lemma-1 style: adaptive Reco re-regularizes each round, so the total
  // reconfiguration time never exceeds the transmission time.
  EXPECT_LE(r.reconfiguration_time, r.transmission_time + 1e-9);
}

// ---------------------------------------------------------------------------
// Hybrid replan-after-deadline (the campaign's third recovery policy).

Matrix hybrid_demand() {
  Matrix d(4);
  d.at(0, 1) = 2.0;
  d.at(0, 3) = 1.0;
  d.at(1, 2) = 3.0;
  d.at(2, 3) = 1.5;
  d.at(3, 0) = 2.5;
  d.at(2, 0) = 0.75;
  return d;
}

SimulationReport run_with_deadline(const Matrix& d, const FaultConfig& faults, Time deadline,
                                   int* replans_out = nullptr) {
  const Time delta = 0.05;
  RecoveringController controller(reco_sin(d, delta), delta, deadline);
  const SimulationReport r = simulate_single_coflow(controller, d, delta, faults);
  if (replans_out != nullptr) *replans_out = controller.replans();
  return r;
}

TEST(Controllers, HybridDeadlineZeroIsImmediateReplanBitForBit) {
  // replan_deadline == 0 must be the historical immediate-replan path
  // exactly — the campaign's kReplan cell is defined by this equivalence.
  const Matrix d = hybrid_demand();
  FaultConfig faults;
  faults.port_faults.push_back({0.5, 1, PortSide::kBoth, 0.4});
  const Time delta = 0.05;
  RecoveringController historical(reco_sin(d, delta), delta);
  const SimulationReport a = simulate_single_coflow(historical, d, delta, faults);
  int replans = 0;
  const SimulationReport b = run_with_deadline(d, faults, 0.0, &replans);
  EXPECT_DOUBLE_EQ(a.cct, b.cct);
  EXPECT_DOUBLE_EQ(a.delivered_demand, b.delivered_demand);
  EXPECT_DOUBLE_EQ(a.degraded_time, b.degraded_time);
  EXPECT_EQ(a.reconfigurations, b.reconfigurations);
  EXPECT_EQ(historical.replans(), replans);
  EXPECT_GE(replans, 1);
}

TEST(Controllers, HybridRepairInsideGraceWindowAvoidsReplanning) {
  // The repair bet pays off: the port comes back 0.2 s into a 1.0 s grace
  // window, so the original plan resumes with zero recovery replans — and
  // the run is identical to pure wait-for-repair.
  const Matrix d = hybrid_demand();
  FaultConfig faults;
  faults.port_faults.push_back({0.5, 1, PortSide::kBoth, 0.2});
  int hybrid_replans = -1;
  const SimulationReport hybrid = run_with_deadline(d, faults, 1.0, &hybrid_replans);
  EXPECT_EQ(hybrid_replans, 0);
  EXPECT_TRUE(hybrid.satisfied);
  EXPECT_EQ(hybrid.port_failures, 1);
  EXPECT_EQ(hybrid.port_repairs, 1);
  EXPECT_GT(hybrid.degraded_time, 0.0);

  int wait_replans = -1;
  const SimulationReport wait = run_with_deadline(d, faults, 1e30, &wait_replans);
  EXPECT_EQ(wait_replans, 0);
  EXPECT_DOUBLE_EQ(hybrid.cct, wait.cct);
  EXPECT_EQ(hybrid.reconfigurations, wait.reconfigurations);
  EXPECT_DOUBLE_EQ(hybrid.delivered_demand, wait.delivered_demand);

  // The immediate-replan policy pays for a recovery plan on the same run.
  int immediate_replans = -1;
  (void)run_with_deadline(d, faults, 0.0, &immediate_replans);
  EXPECT_GE(immediate_replans, 1);
}

TEST(Controllers, HybridDeadlineExpiryHandsOverToTheRecoveryPlanner) {
  // Permanent ingress-0 failure at t=0: the grace window expires with the
  // port still dark, the recovery planner takes over, everything not
  // rooted at the dead port is delivered, and row 0 is stranded.
  const Matrix d = hybrid_demand();
  double row0 = 0.0;
  for (int j = 0; j < d.n(); ++j) row0 += d.at(0, j);
  FaultConfig faults;
  faults.port_faults.push_back({0.0, 0, PortSide::kIngress, -1.0});
  int replans = -1;
  const SimulationReport r = run_with_deadline(d, faults, 0.1, &replans);
  EXPECT_GE(replans, 1);
  EXPECT_FALSE(r.satisfied);
  EXPECT_NEAR(r.stranded_demand, row0, 1e-6);
  EXPECT_NEAR(r.delivered_demand, d.total() - row0, 1e-6);
  EXPECT_GE(r.recoveries, 1);
}

TEST(Controllers, HybridReplansEarlyWhenTheOldPlanIsFullyBlocked) {
  // The old plan's only pending circuit dies with the port; waiting out
  // the (long) deadline would just idle the fabric, so the controller
  // must fall through to the recovery planner immediately and serve the
  // deliverable half, well before the 10 s grace window expires.
  Matrix d(2);
  d.at(0, 0) = 1.0;
  d.at(1, 1) = 1.0;
  CircuitSchedule plan;
  plan.assignments.push_back({{{0, 0}}, 1.0});
  plan.assignments.push_back({{{1, 1}}, 1.0});
  FaultConfig faults;
  faults.port_faults.push_back({0.0, 0, PortSide::kIngress, -1.0});
  const Time delta = 0.05;
  RecoveringController controller(plan, delta, /*replan_deadline=*/10.0);
  const SimulationReport r = simulate_single_coflow(controller, d, delta, faults);
  EXPECT_GE(controller.replans(), 1);
  EXPECT_FALSE(r.satisfied);
  EXPECT_NEAR(r.delivered_demand, 1.0, 1e-6);  // d(1,1) via the recovery plan
  EXPECT_NEAR(r.stranded_demand, 1.0, 1e-6);   // d(0,0) rooted at the dead port
  EXPECT_LT(r.cct, 5.0);  // nowhere near the deadline: the wait was skipped
}

TEST(Controllers, CompletionTimelineIsSorted) {
  Rng rng(972);
  const Matrix d = testing::random_demand(rng, 6, 0.7, 0.5, 5.0);
  ReplayController controller(reco_sin(d, 0.1));
  const SimulationReport r = simulate_single_coflow(controller, d, 0.1);
  ASSERT_EQ(static_cast<int>(r.completions.size()), d.nnz());
  for (std::size_t f = 1; f < r.completions.size(); ++f) {
    EXPECT_GE(r.completions[f].completed_at, r.completions[f - 1].completed_at - 1e-12);
  }
}

}  // namespace
}  // namespace reco::sim
