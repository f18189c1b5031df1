// Event-level replays of precomputed schedules, kept as test oracles for
// the analytic executors: tests/sim/ and tests/sched/test_consistency.cpp
// compare execute_not_all_stop and is_port_feasible against them.  No
// program runs them, so they emit no telemetry.
#pragma once

#include <cstdint>
#include <vector>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/slice.hpp"
#include "core/types.hpp"
#include "sim/fabric.hpp"
#include "sim/faults.hpp"

namespace reco::oracle {

/// Replay of a precomputed schedule on a not-all-stop OCS (per-port
/// reconfiguration; unchanged circuits keep transmitting).  Samples each
/// setup from the same fault config as the all-stop fabric (its setup
/// timing faults; ports stay up); the default is the ideal switch.  The
/// report's `cct` is the last circuit's drain and `events` counts one
/// drain per served circuit.
sim::SimulationReport simulate_not_all_stop_replay(const CircuitSchedule& schedule,
                                                   const Matrix& demand, Time delta,
                                                   const sim::FaultConfig& faults = {});

/// Multi-coflow slice replay with runtime port-constraint enforcement.
struct SliceReplayReport {
  std::vector<Time> cct;       ///< per coflow id
  Time makespan = 0.0;
  int port_violations = 0;     ///< overlapping slices detected (0 = feasible)
  double avg_port_utilization = 0.0;
  std::uint64_t events = 0;    ///< two per slice: its start and its end
};

SliceReplayReport simulate_slice_schedule(const SliceSchedule& schedule, int num_ports,
                                          int num_coflows);

}  // namespace reco::oracle
