#include <gtest/gtest.h>

#include "ocs/all_stop_executor.hpp"
#include "oracles/fabric_replay.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/reco_sin.hpp"
#include "sim/fabric.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco::sim {
namespace {

Matrix demand_under_test(std::uint64_t seed) {
  Rng rng(seed);
  return testing::random_demand(rng, 6, 0.6, 0.5, 4.0);
}

TEST(Faults, DefaultModelMatchesIdealSwitch) {
  const Matrix d = demand_under_test(501);
  const Time delta = 0.1;
  const CircuitSchedule s = reco_sin(d, delta);
  ReplayController a(s);
  ReplayController b(s);
  const SimulationReport ideal = simulate_single_coflow(a, d, delta);
  const SimulationReport with_model = simulate_single_coflow(b, d, delta, FaultConfig{});
  EXPECT_DOUBLE_EQ(ideal.cct, with_model.cct);
  EXPECT_EQ(ideal.reconfigurations, with_model.reconfigurations);
}

TEST(Faults, JitterOnlySlowsDown) {
  const Matrix d = demand_under_test(502);
  const Time delta = 0.1;
  const CircuitSchedule s = reco_sin(d, delta);
  ReplayController a(s);
  const SimulationReport ideal = simulate_single_coflow(a, d, delta);
  FaultConfig faults;
  faults.jitter_fraction = 0.5;
  ReplayController b(s);
  const SimulationReport jittered = simulate_single_coflow(b, d, delta, faults);
  EXPECT_TRUE(jittered.satisfied);
  EXPECT_GE(jittered.cct, ideal.cct - 1e-9);
  // Worst case: every setup 1.5x slower.
  EXPECT_LE(jittered.reconfiguration_time,
            1.5 * delta * jittered.reconfigurations + 1e-9);
  EXPECT_GE(jittered.reconfiguration_time, delta * jittered.reconfigurations - 1e-9);
}

TEST(Faults, RetriesInflateReconfigurationTime) {
  const Matrix d = demand_under_test(503);
  const Time delta = 0.1;
  const CircuitSchedule s = reco_sin(d, delta);
  FaultConfig faults;
  faults.retry_probability = 0.4;
  ReplayController a(s);
  const SimulationReport faulty = simulate_single_coflow(a, d, delta, faults);
  EXPECT_TRUE(faulty.satisfied);
  // Expected attempts per setup = 1/(1-p) ~ 1.67: with 40% retries some
  // setup almost surely repeated.
  EXPECT_GT(faulty.reconfiguration_time, delta * faulty.reconfigurations + 1e-12);
}

TEST(Faults, DeterministicPerSeed) {
  const Matrix d = demand_under_test(504);
  const Time delta = 0.1;
  const CircuitSchedule s = reco_sin(d, delta);
  FaultConfig faults;
  faults.jitter_fraction = 0.3;
  faults.retry_probability = 0.2;
  ReplayController a(s);
  ReplayController b(s);
  const SimulationReport r1 = simulate_single_coflow(a, d, delta, faults);
  const SimulationReport r2 = simulate_single_coflow(b, d, delta, faults);
  EXPECT_DOUBLE_EQ(r1.cct, r2.cct);
  faults.seed = 99;
  ReplayController c(s);
  const SimulationReport r3 = simulate_single_coflow(c, d, delta, faults);
  EXPECT_NE(r1.cct, r3.cct);  // different fault stream, different timeline
}

TEST(Faults, DemandStillFullyServedUnderHeavyFaults) {
  const Matrix d = demand_under_test(505);
  const Time delta = 0.05;
  FaultConfig faults;
  faults.jitter_fraction = 1.0;
  faults.retry_probability = 0.5;
  ReplayController a(reco_sin(d, delta));
  const SimulationReport r = simulate_single_coflow(a, d, delta, faults);
  EXPECT_TRUE(r.satisfied);  // faults cost time, never correctness
}

TEST(Faults, TimingFaultsValidatedAtSimulationEntry) {
  // Regression: retry_probability >= 1 used to spin the retry loop forever
  // and negative jitter was silently accepted; both now throw up front.
  const Matrix d = demand_under_test(506);
  FaultConfig forever;
  forever.retry_probability = 1.0;
  ReplayController a(reco_sin(d, 0.1));
  EXPECT_THROW(simulate_single_coflow(a, d, 0.1, forever), std::invalid_argument);
  FaultConfig negative;
  negative.jitter_fraction = -0.5;
  ReplayController b(reco_sin(d, 0.1));
  EXPECT_THROW(simulate_single_coflow(b, d, 0.1, negative), std::invalid_argument);
}

TEST(Faults, ExhaustedAttemptBudgetTerminatesWithAccounting) {
  // A near-certain retry probability under a tiny attempt budget: setups
  // fail instead of looping, the run ends, and every unit of demand is
  // either delivered or reported stranded.
  const Matrix d = demand_under_test(507);
  const Time delta = 0.05;
  FaultConfig faults;
  faults.retry_probability = 0.99;
  faults.max_attempts = 2;
  ReplayController a(reco_sin(d, delta));
  const SimulationReport r = simulate_single_coflow(a, d, delta, faults);
  EXPECT_GT(r.setup_failures, 0);
  EXPECT_NEAR(r.delivered_demand + r.stranded_demand, d.total(), 1e-5);
  EXPECT_EQ(r.satisfied, r.stranded_demand < kMinServiceQuantum);
}

TEST(Faults, IdealInjectorMatchesLegacyIdealRun) {
  // The default config's run matches the analytic all-stop executor.
  const Matrix d = demand_under_test(508);
  const Time delta = 0.1;
  const CircuitSchedule s = reco_sin(d, delta);
  const ExecutionResult legacy = execute_all_stop(s, d, delta);
  ReplayController controller(s);
  const SimulationReport injected = simulate_single_coflow(controller, d, delta, FaultConfig{});
  EXPECT_NEAR(legacy.cct, injected.cct, 1e-9);
  EXPECT_EQ(legacy.reconfigurations, injected.reconfigurations);
  EXPECT_DOUBLE_EQ(injected.stranded_demand, 0.0);
  EXPECT_NEAR(injected.delivered_demand, d.total(), 1e-6);
  EXPECT_EQ(injected.port_failures, 0);
  EXPECT_DOUBLE_EQ(injected.degraded_time, 0.0);
}

Matrix recovery_demand() {
  Matrix d(4);
  d.at(0, 1) = 2.0;   // dies with ingress 0
  d.at(0, 3) = 1.0;   // dies with ingress 0
  d.at(1, 2) = 3.0;
  d.at(2, 3) = 1.5;
  d.at(3, 0) = 2.5;
  d.at(2, 0) = 0.75;
  return d;
}

TEST(Faults, RecoveringControllerDeliversAllDeliverableDemand) {
  // Tentpole acceptance: permanent ingress-0 failure at t=0.  Everything
  // not rooted at the dead port is delivered via replanning on the
  // surviving ports; the rest is stranded and the run terminates.
  const Matrix d = recovery_demand();
  const Time delta = 0.05;
  FaultConfig config;
  config.port_faults.push_back({0.0, 0, PortSide::kIngress, -1.0});
  RecoveringController controller(reco_sin(d, delta), delta);
  const SimulationReport r = simulate_single_coflow(controller, d, delta, config);
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.port_failures, 1);
  EXPECT_EQ(r.port_repairs, 0);
  EXPECT_NEAR(r.stranded_demand, 3.0, 1e-6);  // exactly row 0's demand
  EXPECT_NEAR(r.delivered_demand, d.total() - 3.0, 1e-6);
  EXPECT_GE(controller.replans(), 1);
  EXPECT_GE(r.recoveries, 1);  // useful service resumed after the failure
  EXPECT_GT(r.degraded_time, 0.0);
}

TEST(Faults, TransientPortFailureFullyRecovers) {
  const Matrix d = recovery_demand();
  const Time delta = 0.05;
  FaultConfig config;
  config.port_faults.push_back({0.5, 1, PortSide::kBoth, 0.4});
  RecoveringController controller(reco_sin(d, delta), delta);
  const SimulationReport r = simulate_single_coflow(controller, d, delta, config);
  EXPECT_TRUE(r.satisfied);  // the port came back: nothing is stranded
  EXPECT_EQ(r.port_failures, 1);
  EXPECT_EQ(r.port_repairs, 1);
  EXPECT_NEAR(r.delivered_demand, d.total(), 1e-5);
  EXPECT_LT(r.stranded_demand, 1e-6);
  EXPECT_GT(r.degraded_time, 0.0);
  EXPECT_LE(r.degraded_time, r.cct + 1e-9);
}

TEST(Faults, ConservationHoldsUnderFaultSoup) {
  // Property: delivered + stranded == total demand under any mix of port
  // failures, timeouts, partial setups, and timing faults — and the
  // run always terminates.
  const Time delta = 0.05;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const Matrix d = demand_under_test(600 + seed);
    FaultConfig config;
    config.jitter_fraction = 0.3;
    config.retry_probability = 0.2;
    config.max_attempts = 8;
    config.port_mtbf = 2.0;
    config.port_mttr = 0.5;
    config.setup_timeout_probability = 0.2;
    config.crosspoint_failure_probability = 0.1;
    config.seed = seed;
    RecoveringController controller(reco_sin(d, delta), delta);
    const SimulationReport r = simulate_single_coflow(controller, d, delta, config);
    EXPECT_NEAR(r.delivered_demand + r.stranded_demand, d.total(), 1e-5)
        << "seed " << seed;
    EXPECT_EQ(r.satisfied, r.stranded_demand < kMinServiceQuantum) << "seed " << seed;
  }
}

// The decision loop's fault paths in one run: port failures and repairs,
// failed and partial setups, and recoveries.  The counts and times are
// pinned at what the callback event queue that the fabric replaced
// produced.
TEST(Faults, FaultSoupRunIsPinned) {
  const Time delta = 0.05;
  const Matrix d = demand_under_test(611);
  FaultConfig config;
  config.jitter_fraction = 0.3;
  config.retry_probability = 0.5;
  config.max_attempts = 2;
  config.port_mtbf = 2.0;
  config.port_mttr = 0.5;
  config.setup_timeout_probability = 0.2;
  config.crosspoint_failure_probability = 0.1;
  config.seed = 11;
  RecoveringController controller(reco_sin(d, delta), delta);
  const SimulationReport r = simulate_single_coflow(controller, d, delta, config);
  EXPECT_EQ(r.events, 50u);
  EXPECT_EQ(r.reconfigurations, 28);
  EXPECT_EQ(r.setup_failures, 10);
  EXPECT_EQ(r.partial_setups, 5);
  EXPECT_EQ(r.recoveries, 16);
  EXPECT_EQ(r.port_failures, 70);
  EXPECT_EQ(r.port_repairs, 70);
  EXPECT_EQ(r.completions.size(), 24u);
  EXPECT_EQ(r.cct, 30.387890571438597);
  EXPECT_EQ(r.degraded_time, 21.863551539149853);
  EXPECT_EQ(r.stranded_demand, 0.0);
}

TEST(Faults, FaultStreamIdenticalAcrossThreadCounts) {
  // The fault streams are consumed in simulation-event order only, so the
  // degraded timeline is bit-identical at any RECO_THREADS setting.
  const Matrix d = demand_under_test(509);
  const Time delta = 0.05;
  FaultConfig config;
  config.jitter_fraction = 0.25;
  config.port_mtbf = 1.5;
  config.port_mttr = 0.3;
  config.setup_timeout_probability = 0.15;
  config.crosspoint_failure_probability = 0.1;
  config.seed = 77;
  SimulationReport reports[2];
  const int thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    runtime::set_thread_count(thread_counts[i]);
    RecoveringController controller(reco_sin(d, delta), delta);
    reports[i] = simulate_single_coflow(controller, d, delta, config);
  }
  runtime::set_thread_count(0);  // restore the env/hardware default
  EXPECT_DOUBLE_EQ(reports[0].cct, reports[1].cct);
  EXPECT_DOUBLE_EQ(reports[0].delivered_demand, reports[1].delivered_demand);
  EXPECT_DOUBLE_EQ(reports[0].stranded_demand, reports[1].stranded_demand);
  EXPECT_DOUBLE_EQ(reports[0].degraded_time, reports[1].degraded_time);
  EXPECT_EQ(reports[0].port_failures, reports[1].port_failures);
  EXPECT_EQ(reports[0].setup_failures, reports[1].setup_failures);
  EXPECT_EQ(reports[0].partial_setups, reports[1].partial_setups);
  EXPECT_EQ(reports[0].reconfigurations, reports[1].reconfigurations);
}

TEST(Faults, NotAllStopReplayAcceptsFaultConfig) {
  const Matrix d = demand_under_test(510);
  const Time delta = 0.1;
  const CircuitSchedule s = reco_sin(d, delta);
  const SimulationReport ideal = oracle::simulate_not_all_stop_replay(s, d, delta);
  const SimulationReport with_default =
      oracle::simulate_not_all_stop_replay(s, d, delta, FaultConfig{});
  EXPECT_DOUBLE_EQ(ideal.cct, with_default.cct);
  EXPECT_EQ(ideal.reconfigurations, with_default.reconfigurations);

  FaultConfig jitter;
  jitter.jitter_fraction = 0.5;
  const SimulationReport slowed = oracle::simulate_not_all_stop_replay(s, d, delta, jitter);
  EXPECT_TRUE(slowed.satisfied);
  EXPECT_GE(slowed.cct, ideal.cct - 1e-9);

  FaultConfig flaky;
  flaky.retry_probability = 0.9;
  flaky.max_attempts = 2;
  const SimulationReport degraded = oracle::simulate_not_all_stop_replay(s, d, delta, flaky);
  EXPECT_NEAR(degraded.delivered_demand + degraded.stranded_demand, d.total(), 1e-5);

  FaultConfig invalid;
  invalid.retry_probability = 1.0;
  EXPECT_THROW(oracle::simulate_not_all_stop_replay(s, d, delta, invalid), std::invalid_argument);
}

}  // namespace
}  // namespace reco::sim
