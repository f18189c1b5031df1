// Circuit assignments and circuit schedules: the OCS-side output of the
// single-coflow algorithms (Sec. II-A definitions).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace reco {

/// One circuit: an (ingress, egress) port pair.
struct Circuit {
  PortId in = 0;
  PortId out = 0;
  bool operator==(const Circuit&) const = default;
};

/// A circuit establishment C(u) with its planned duration dur(u): a set of
/// concurrently established circuits (a matching, by the port constraint)
/// held for `duration` before the next reconfiguration.
struct CircuitAssignment {
  std::vector<Circuit> circuits;
  Time duration = 0.0;

  /// True iff no ingress and no egress port appears twice (port constraint).
  bool is_matching(int n_ports) const;
};

/// A circuit scheduling C = ((C(1),dur(1)), ..., (C(m),dur(m))).
struct CircuitSchedule {
  std::vector<CircuitAssignment> assignments;

  int num_assignments() const { return static_cast<int>(assignments.size()); }

  /// Sum of planned durations (the schedule's nominal transmission time).
  Time planned_transmission_time() const;

  /// True iff every assignment satisfies the port constraint.
  bool is_valid(int n_ports) const;

  std::string to_string() const;
};

}  // namespace reco
