#include "sched/rotornet.hpp"

#include <algorithm>
#include <stdexcept>

namespace reco {

namespace {
/// Slot length as a multiple of delta.
constexpr double kSlotOverDelta = 10.0;
/// Safety valve on emitted assignments.
constexpr int kMaxAssignments = 1 << 22;
}  // namespace

CircuitSchedule rotornet_schedule(const Matrix& demand, Time delta) {
  const Time slot = kSlotOverDelta * delta;
  if (!(slot > 0.0)) {
    throw std::invalid_argument("rotornet_schedule: slot length must be positive");
  }
  CircuitSchedule schedule;
  const int n = demand.n();
  if (demand.nnz() == 0) return schedule;

  Matrix residual = demand;
  int emitted = 0;
  while (residual.nnz() > 0 && emitted < kMaxAssignments) {
    bool progressed = false;
    for (int r = 0; r < n && residual.nnz() > 0; ++r) {
      CircuitAssignment a;
      a.duration = slot;
      Time served_max = 0.0;
      for (int i = 0; i < n; ++i) {
        const int j = (i + r) % n;
        const Time rem = residual.at(i, j);
        if (approx_zero(rem)) continue;
        a.circuits.push_back({i, j});
        served_max = std::max(served_max, std::min(slot, rem));
      }
      if (a.circuits.empty()) continue;  // rotation has nothing left: drop
      for (const Circuit& c : a.circuits) {
        residual.at(c.in, c.out) =
            clamp_zero(std::max(0.0, residual.at(c.in, c.out) - slot));
      }
      schedule.assignments.push_back(std::move(a));
      ++emitted;
      progressed = served_max > 0.0;
    }
    if (!progressed) break;  // defensive: nothing served in a full cycle
  }
  return schedule;
}

}  // namespace reco
