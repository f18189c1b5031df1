// Event-driven OCS fabric: the paper's "trace-driven flow-level simulator"
// (Sec. V-A Methodology).
//
// Where ocs/ replays schedules analytically, this module simulates the
// switch: reconfiguration and drain instants are events, controllers are
// consulted at decision points, per-flow completions and per-port busy
// time are recorded.  The all-stop fabric never has more than one event
// pending (the next decision, or the hold before it), so it runs as a
// plain loop.  The analytic executors are cross-validated against it
// property-test-style (tests/sim/), beside the not-all-stop and slice
// replays the tests keep as oracles (tests/oracles/fabric_replay.hpp), and
// adaptive policies — which have no precomputed schedule to replay — run
// only here.  This is the one fabric that runs under fault injection
// (sim/faults.hpp): port liveness, failed and partial setups, stranded
// demand and degraded time are tracked here alone; the multi-coflow fabric
// (sim/multi_fabric.hpp) is ideal.
#pragma once

#include <cstdint>
#include <vector>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/types.hpp"
#include "sim/controller.hpp"
#include "sim/faults.hpp"

namespace reco::sim {

/// One transmitted flow's record: which circuit, and when it finished.
struct FlowCompletion {
  Circuit circuit;
  Time completed_at = 0.0;
};

struct SimulationReport {
  /// The time of the last decision (the one at which the controller
  /// stopped or the run ended).
  Time cct = 0.0;
  Time transmission_time = 0.0;      ///< fabric-level transmitting time
  Time reconfiguration_time = 0.0;
  int reconfigurations = 0;
  bool satisfied = false;
  /// Ordered by completion time; flows that complete at one instant keep
  /// the order in which they drained (circuit order within a hold).
  std::vector<FlowCompletion> completions;
  /// Mean over *active* ports of (port transmit-busy time / cct).
  double avg_port_utilization = 0.0;
  /// Decisions plus holds.
  std::uint64_t events = 0;

  // Degraded-operation accounting (all zero on an ideal run).  The
  // conservation invariant `delivered_demand + stranded_demand ==
  // demand.total()` holds under any fault configuration.
  Time delivered_demand = 0.0;  ///< volume actually transmitted
  Time stranded_demand = 0.0;   ///< residual left at termination
  int setup_failures = 0;       ///< setups that exhausted the attempt budget
  int partial_setups = 0;       ///< setups that latched only a subset
  int recoveries = 0;           ///< degraded -> useful-service transitions
  int port_failures = 0;
  int port_repairs = 0;
  Time degraded_time = 0.0;     ///< sim time with >= 1 port down (up to cct)
};

/// Run one coflow on an all-stop OCS under `controller` until the
/// controller stops or the demand drains.  `faults` adds port failures,
/// partial and slow setups, and bounded setup retries (see sim/faults.hpp);
/// the default config is the ideal switch.  Throws std::invalid_argument
/// on an invalid config.
SimulationReport simulate_single_coflow(CircuitController& controller, const Matrix& demand,
                                        Time delta, const FaultConfig& faults = {});

}  // namespace reco::sim
