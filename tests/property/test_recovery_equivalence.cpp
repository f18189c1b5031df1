// Recovery replans pull their assignments from a SurvivingCursor instead of
// materializing the whole surviving-ports plan, and a campaign pulls its
// initial plan from a RecoSinController instead of replaying a whole
// reco_sin schedule.  Nothing reorders the peel's assignments and pruning
// is per assignment, so a pulled plan must drive the fault-injected fabric
// exactly as the materialized one did: every SimulationReport field and the
// replan count, over the campaign's recovery policies, MTBF points and
// extra fault channels.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/coflow.hpp"
#include "obs/obs.hpp"
#include "property/recovery_oracle.hpp"
#include "sched/reco_sin.hpp"
#include "sim/controller.hpp"
#include "sim/fabric.hpp"
#include "sim/faults.hpp"
#include "testing_util.hpp"
#include "trace/generator.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

constexpr Time kDelta = 100e-6;

/// The campaign's three recovery policies as RecoveringController
/// deadlines: immediate replan, wait for repair, and hybrid.
constexpr Time kDeadlines[] = {0.0, 1e30, 0.02};

struct Replication {
  sim::SimulationReport report;
  int replans = 0;
};

/// One campaign replication (CampaignRunner::run_one's shape): a generated
/// workload aggregated into one demand, run on the fault-injected fabric
/// under `controller`.
template <class Controller>
Replication simulate(Controller& controller, const Matrix& demand,
                     const sim::FaultConfig& faults) {
  Replication r;
  r.report = sim::simulate_single_coflow(controller, demand, kDelta, faults);
  r.replans = controller.replans();
  return r;
}

/// The replication with its initial plan materialized by reco_sin and
/// replayed, under `Controller`.
template <class Controller>
Replication run_replication(const Matrix& demand, const sim::FaultConfig& faults,
                            Time deadline) {
  Controller controller(reco_sin(demand, kDelta), kDelta, deadline);
  return simulate(controller, demand, faults);
}

/// The replication as CampaignRunner::run_one runs it: the initial plan is
/// pulled from a RecoSinController.
Replication run_lazy_replication(const Matrix& demand, const sim::FaultConfig& faults,
                                 Time deadline) {
  sim::RecoveringController controller(std::make_unique<sim::RecoSinController>(demand, kDelta),
                                       kDelta, deadline);
  return simulate(controller, demand, faults);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_replication(const Replication& a, const Replication& b,
                             const std::string& where) {
  const sim::SimulationReport& x = a.report;
  const sim::SimulationReport& y = b.report;
  EXPECT_EQ(a.replans, b.replans) << where;
  EXPECT_EQ(bits(x.cct), bits(y.cct)) << where;
  EXPECT_EQ(bits(x.transmission_time), bits(y.transmission_time)) << where;
  EXPECT_EQ(bits(x.reconfiguration_time), bits(y.reconfiguration_time)) << where;
  EXPECT_EQ(x.reconfigurations, y.reconfigurations) << where;
  EXPECT_EQ(x.satisfied, y.satisfied) << where;
  EXPECT_EQ(bits(x.avg_port_utilization), bits(y.avg_port_utilization)) << where;
  EXPECT_EQ(x.events, y.events) << where;
  EXPECT_EQ(bits(x.delivered_demand), bits(y.delivered_demand)) << where;
  EXPECT_EQ(bits(x.stranded_demand), bits(y.stranded_demand)) << where;
  EXPECT_EQ(x.setup_failures, y.setup_failures) << where;
  EXPECT_EQ(x.partial_setups, y.partial_setups) << where;
  EXPECT_EQ(x.recoveries, y.recoveries) << where;
  EXPECT_EQ(x.port_failures, y.port_failures) << where;
  EXPECT_EQ(x.port_repairs, y.port_repairs) << where;
  EXPECT_EQ(bits(x.degraded_time), bits(y.degraded_time)) << where;
  ASSERT_EQ(x.completions.size(), y.completions.size()) << where;
  for (std::size_t k = 0; k < x.completions.size(); ++k) {
    EXPECT_EQ(x.completions[k].circuit, y.completions[k].circuit) << where << " completion " << k;
    EXPECT_EQ(bits(x.completions[k].completed_at), bits(y.completions[k].completed_at))
        << where << " completion " << k;
  }
}

struct Channels {
  double setup_timeout = 0.0;
  double crosspoint = 0.0;
};

/// Totals over a sweep, so the tests can show which paths they exercised.
struct Coverage {
  int replans = 0;
  int port_failures = 0;
  int degraded_setups = 0;  ///< setup failures plus partial setups
};

/// Which two controllers a sweep runs side by side.
enum class Pair {
  /// Pulled recovery plans against materialized ones (both replay a
  /// materialized initial plan).
  kRecoveryPlans,
  /// A pulled initial plan against a replayed reco_sin schedule (both pull
  /// their recovery plans).
  kInitialPlan,
};

Coverage sweep(Pair pair, const std::vector<double>& mtbfs, const Channels& channels, int reps,
               int ports) {
  Coverage seen;
  for (const Time deadline : kDeadlines) {
    for (const double mtbf : mtbfs) {
      for (int rep = 0; rep < reps; ++rep) {
        GeneratorOptions gen;
        gen.num_ports = ports;
        gen.num_coflows = 8;
        gen.delta = kDelta;
        gen.seed = 1000 + static_cast<std::uint64_t>(rep);
        Matrix demand(ports);
        for (const Coflow& c : generate_workload(gen)) demand += c.demand;

        sim::FaultConfig faults;
        faults.port_mtbf = mtbf;
        faults.port_mttr = 0.01;
        faults.setup_timeout_probability = channels.setup_timeout;
        faults.crosspoint_failure_probability = channels.crosspoint;
        faults.seed = 77 + static_cast<std::uint64_t>(rep);

        const std::string where = "deadline=" + std::to_string(deadline) +
                                  " mtbf=" + std::to_string(mtbf) +
                                  " rep=" + std::to_string(rep) +
                                  " setup_timeout=" + std::to_string(channels.setup_timeout) +
                                  " crosspoint=" + std::to_string(channels.crosspoint);
        const Replication materialized =
            pair == Pair::kRecoveryPlans
                ? run_replication<oracle::MaterializingRecoveringController>(demand, faults,
                                                                             deadline)
                : run_replication<sim::RecoveringController>(demand, faults, deadline);
        const Replication pulled =
            pair == Pair::kRecoveryPlans
                ? run_replication<sim::RecoveringController>(demand, faults, deadline)
                : run_lazy_replication(demand, faults, deadline);
        expect_same_replication(pulled, materialized, where);
        seen.replans += pulled.replans;
        seen.port_failures += pulled.report.port_failures;
        seen.degraded_setups += pulled.report.setup_failures + pulled.report.partial_setups;
      }
    }
  }
  return seen;
}

TEST(RecoveryEquivalence, PortFaultsAtBothMtbfPoints) {
  const Coverage seen = sweep(Pair::kRecoveryPlans, {0.05, 0.02}, Channels{}, 6, 24);
  EXPECT_GT(seen.port_failures, 0);
  EXPECT_GT(seen.replans, 0);
}

TEST(RecoveryEquivalence, PortFaultsWithDegradedSetups) {
  const Coverage seen =
      sweep(Pair::kRecoveryPlans, {0.05, 0.02}, Channels{0.05, 0.05}, 6, 24);
  EXPECT_GT(seen.degraded_setups, 0);
  EXPECT_GT(seen.replans, 0);
}

TEST(RecoveryEquivalence, DegradedSetupsAloneTriggerReplans) {
  // No port ever fails, so every replan here comes from on_setup_degraded.
  const Coverage seen = sweep(Pair::kRecoveryPlans, {0.0}, Channels{0.1, 0.1}, 6, 16);
  EXPECT_EQ(seen.port_failures, 0);
  EXPECT_GT(seen.degraded_setups, 0);
  EXPECT_GT(seen.replans, 0);
}

TEST(RecoveryEquivalence, SurvivingDrainMatchesMaterializedPlan) {
  Rng rng(31);
  for (const int n : {4, 9, 24}) {
    for (int trial = 0; trial < 8; ++trial) {
      const Matrix residual = testing::random_demand(rng, n, 0.4, 1e-4, 5e-3);
      std::vector<char> failed_in(n, 0);
      std::vector<char> failed_out(static_cast<std::size_t>(n) / 2, 0);  // shorter than n
      for (char& f : failed_in) f = rng.uniform_int(4) == 0;
      for (char& f : failed_out) f = rng.uniform_int(4) == 0;
      const CircuitSchedule pulled =
          oracle::drained_surviving_plan(residual, failed_in, failed_out, kDelta);
      const CircuitSchedule materialized =
          oracle::materialized_surviving_plan(residual, failed_in, failed_out, kDelta);
      const std::string where = "n=" + std::to_string(n) + " trial=" + std::to_string(trial);
      ASSERT_EQ(pulled.num_assignments(), materialized.num_assignments()) << where;
      for (int u = 0; u < pulled.num_assignments(); ++u) {
        EXPECT_EQ(bits(pulled.assignments[u].duration), bits(materialized.assignments[u].duration))
            << where << " assignment " << u;
        EXPECT_EQ(pulled.assignments[u].circuits, materialized.assignments[u].circuits)
            << where << " assignment " << u;
      }
    }
  }
}

TEST(RecoveryEquivalence, TelemetryLeavesPulledRecoveryUnchanged) {
  GeneratorOptions gen;
  gen.num_ports = 16;
  gen.num_coflows = 8;
  gen.delta = kDelta;
  gen.seed = 5;
  Matrix demand(gen.num_ports);
  for (const Coflow& c : generate_workload(gen)) demand += c.demand;
  sim::FaultConfig faults;
  faults.port_mtbf = 0.02;
  faults.port_mttr = 0.01;
  faults.seed = 9;

  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  const Replication off = run_replication<sim::RecoveringController>(demand, faults, 0.0);
  obs::reset();
  obs::set_enabled(true);
  const Replication on = run_replication<sim::RecoveringController>(demand, faults, 0.0);
  const double replans = obs::metrics().counter("faults.replans").value();
  obs::set_enabled(was_enabled);
  obs::reset();
  expect_same_replication(on, off, "telemetry on vs off");
  ASSERT_GT(on.replans, 0);
  EXPECT_EQ(replans, static_cast<double>(on.replans));
}

TEST(LazyInitialPlan, PortFaultsAtBothMtbfPoints) {
  const Coverage seen = sweep(Pair::kInitialPlan, {0.05, 0.02}, Channels{}, 6, 24);
  EXPECT_GT(seen.port_failures, 0);
  EXPECT_GT(seen.replans, 0);
}

TEST(LazyInitialPlan, PortFaultsWithDegradedSetups) {
  const Coverage seen =
      sweep(Pair::kInitialPlan, {0.05, 0.02}, Channels{0.05, 0.05}, 6, 24);
  EXPECT_GT(seen.degraded_setups, 0);
  EXPECT_GT(seen.replans, 0);
}

TEST(LazyInitialPlan, DegradedSetupsAloneTriggerReplans) {
  const Coverage seen = sweep(Pair::kInitialPlan, {0.0}, Channels{0.1, 0.1}, 6, 16);
  EXPECT_EQ(seen.port_failures, 0);
  EXPECT_GT(seen.degraded_setups, 0);
  EXPECT_GT(seen.replans, 0);
}

TEST(LazyInitialPlan, FaultFreeRunPlaysTheWholePlan) {
  // No fault ever fires, so the initial plan runs to its end.
  const Coverage seen = sweep(Pair::kInitialPlan, {0.0}, Channels{}, 4, 24);
  EXPECT_EQ(seen.replans, 0);
  EXPECT_EQ(seen.degraded_setups, 0);
}

TEST(LazyInitialPlan, ReplaysTheRecoSinSchedule) {
  // Alone, the controller hands out reco_sin's assignments in order,
  // skipping those whose circuits are drained, as ReplayController does.
  Rng rng(37);
  for (const int n : {3, 8, 24}) {
    for (int trial = 0; trial < 6; ++trial) {
      const Matrix demand = testing::random_demand(rng, n, 0.4, 1e-4, 5e-3);
      sim::RecoSinController lazy(demand, kDelta);
      sim::ReplayController replay(reco_sin(demand, kDelta));
      const std::string where = "n=" + std::to_string(n) + " trial=" + std::to_string(trial);
      // Drain every other residual entry after the first decision, so later
      // decisions have establishments to skip.
      Matrix residual = demand;
      for (int step = 0;; ++step) {
        const std::optional<CircuitAssignment> a = lazy.next_assignment(0.0, residual);
        const std::optional<CircuitAssignment> b = replay.next_assignment(0.0, residual);
        ASSERT_EQ(a.has_value(), b.has_value()) << where << " step " << step;
        if (!a) break;
        EXPECT_EQ(bits(a->duration), bits(b->duration)) << where << " step " << step;
        EXPECT_EQ(a->circuits, b->circuits) << where << " step " << step;
        if (step == 0) {
          for (int i = 0; i < n; ++i) {
            for (int j = (i % 2); j < n; j += 2) residual.at(i, j) = 0.0;
          }
        }
      }
    }
  }
}

/// Number of wall-clock complete events named `name` in a Chrome trace.
int count_spans(const std::string& json, const std::string& name) {
  const std::string head = "{\"name\":\"" + name + "\",";
  int count = 0;
  for (std::size_t at = json.find(head); at != std::string::npos; at = json.find(head, at + 1)) {
    ++count;
  }
  return count;
}

TEST(LazyInitialPlan, InitialPlanIsTracedAsRecoSinNotAsARecovery) {
  GeneratorOptions gen;
  gen.num_ports = 16;
  gen.num_coflows = 8;
  gen.delta = kDelta;
  gen.seed = 5;
  Matrix demand(gen.num_ports);
  for (const Coflow& c : generate_workload(gen)) demand += c.demand;
  for (const double mtbf : {0.0, 0.02}) {
    sim::FaultConfig faults;
    faults.port_mtbf = mtbf;
    faults.port_mttr = 0.01;
    faults.seed = 9;
    const bool was_enabled = obs::enabled();
    obs::reset();
    obs::set_enabled(true);
    const Replication r = run_lazy_replication(demand, faults, 0.0);
    const double replans = obs::metrics().counter("faults.replans").value();
    std::ostringstream json;
    obs::tracer().write_chrome_json(json);
    const std::uint64_t dropped = obs::tracer().dropped();
    obs::set_enabled(was_enabled);
    obs::reset();
    ASSERT_EQ(dropped, 0u);
    EXPECT_EQ(replans, static_cast<double>(r.replans)) << "mtbf=" << mtbf;
    // One sched.reco_sin span per plan: the initial one and each recovery.
    EXPECT_EQ(count_spans(json.str(), "sched.reco_sin_surviving"), r.replans) << "mtbf=" << mtbf;
    EXPECT_EQ(count_spans(json.str(), "sched.reco_sin"), r.replans + 1) << "mtbf=" << mtbf;
    if (mtbf > 0.0) {
      EXPECT_GT(r.replans, 0);
    }
  }
}

}  // namespace
}  // namespace reco
