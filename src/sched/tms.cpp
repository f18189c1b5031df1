#include "sched/tms.hpp"

#include <algorithm>
#include <stdexcept>

#include "matching/hungarian.hpp"

namespace reco {

namespace {
/// Circuit hold per establishment, as a multiple of delta.
constexpr double kDayOverDelta = 10.0;
/// Safety valve: stop extending the schedule after this many
/// establishments (the executor would skip useless ones anyway).
constexpr int kMaxAssignments = 1 << 20;
}  // namespace

CircuitSchedule tms_schedule(const Matrix& demand, Time delta) {
  const Time day = kDayOverDelta * delta;
  if (!(day > 0.0)) {
    throw std::invalid_argument("tms_schedule: day length must be positive");
  }
  CircuitSchedule schedule;
  if (demand.nnz() == 0) return schedule;

  Matrix residual = demand;
  for (int round = 0; round < kMaxAssignments && residual.nnz() > 0; ++round) {
    const AssignmentResult match = max_weight_assignment(residual);
    CircuitAssignment a;
    Time largest = 0.0;
    for (int i = 0; i < residual.n(); ++i) {
      const int j = match.col_of_row[i];
      const Time rem = residual.at(i, j);
      if (approx_zero(rem)) continue;
      a.circuits.push_back({i, j});
      largest = std::max(largest, rem);
    }
    if (a.circuits.empty()) break;  // matching picked only zero entries: done

    // Hold for one "day" — or shorter when every matched circuit drains
    // first (the executor would cut the establishment there anyway).
    // Entries smaller than the hold are simply over-served, exactly like a
    // real day/night duty cycle.
    a.duration = std::min(day, largest);
    for (const Circuit& c : a.circuits) {
      residual.at(c.in, c.out) =
          clamp_zero(std::max(0.0, residual.at(c.in, c.out) - a.duration));
    }
    schedule.assignments.push_back(std::move(a));
  }
  return schedule;
}

}  // namespace reco
