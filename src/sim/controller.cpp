#include "sim/controller.hpp"

#include <algorithm>
#include <utility>

#include "bvn/regularization.hpp"
#include "bvn/stuffing.hpp"
#include "matching/bottleneck.hpp"
#include "matching/hungarian.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace reco::sim {

namespace {

/// False when every circuit of `a` is already drained: a plan replay skips
/// such an establishment without reconfiguring.
bool serves_residual(const CircuitAssignment& a, const Matrix& residual) {
  for (const Circuit& c : a.circuits) {
    if (residual.at(c.in, c.out) >= kMinServiceQuantum) return true;
  }
  return false;
}

}  // namespace

ReplayController::ReplayController(CircuitSchedule schedule) : schedule_(std::move(schedule)) {}

std::optional<CircuitAssignment> ReplayController::next_assignment(Time /*now*/,
                                                                   const Matrix& residual) {
  while (next_ < schedule_.assignments.size()) {
    const CircuitAssignment& a = schedule_.assignments[next_++];
    if (serves_residual(a, residual)) return a;
  }
  return std::nullopt;
}

RecoSinController::RecoSinController(Matrix demand, Time delta)
    : plan_(std::move(demand), delta) {}

std::optional<CircuitAssignment> RecoSinController::next_assignment(Time /*now*/,
                                                                    const Matrix& residual) {
  while (std::optional<CircuitAssignment> a = plan_.next()) {
    if (serves_residual(*a, residual)) return a;
  }
  return std::nullopt;
}

std::optional<CircuitAssignment> GreedyMaxWeightController::next_assignment(
    Time /*now*/, const Matrix& residual) {
  if (residual.max_entry() < kMinServiceQuantum) return std::nullopt;
  const AssignmentResult match = max_weight_assignment(residual);
  CircuitAssignment a;
  Time largest = 0.0;
  for (int i = 0; i < residual.n(); ++i) {
    const int j = match.col_of_row[i];
    const Time rem = residual.at(i, j);
    if (rem < kMinServiceQuantum) continue;
    a.circuits.push_back({i, j});
    largest = std::max(largest, rem);
  }
  if (a.circuits.empty()) {
    // Max-weight matching avoided every live entry (possible when live
    // entries clash on ports with heavier zero-entry rows): fall back to
    // serving the single largest entry.
    int bi = 0;
    int bj = 0;
    for (int i = 0; i < residual.n(); ++i) {
      for (int j = 0; j < residual.n(); ++j) {
        if (residual.at(i, j) > residual.at(bi, bj)) {
          bi = i;
          bj = j;
        }
      }
    }
    a.circuits.push_back({bi, bj});
    largest = residual.at(bi, bj);
  }
  a.duration = largest;
  return a;
}

AdaptiveRecoController::AdaptiveRecoController(Time delta) : delta_(delta) {}

std::optional<CircuitAssignment> AdaptiveRecoController::next_assignment(
    Time /*now*/, const Matrix& residual) {
  if (residual.max_entry() < kMinServiceQuantum) return std::nullopt;
  // Regularize + stuff the residual so a perfect matching exists, then take
  // one max-min extraction — Algorithm 1 re-planned against live state.
  const Matrix prepared = stuff_granular(regularize(residual, delta_), delta_);
  const std::optional<BottleneckMatching> match = bottleneck_perfect_matching(prepared);
  if (!match) return std::nullopt;  // tolerance-scale crumbs only
  CircuitAssignment a;
  a.duration = match->bottleneck;
  for (const auto& [i, j] : match->pairs) {
    if (residual.at(i, j) >= kMinServiceQuantum) a.circuits.push_back({i, j});
  }
  if (a.circuits.empty()) return std::nullopt;
  return a;
}

RecoveringController::RecoveringController(std::unique_ptr<CircuitController> inner, Time delta,
                                           Time replan_deadline)
    : inner_(std::move(inner)), delta_(delta), replan_deadline_(replan_deadline) {}

RecoveringController::RecoveringController(CircuitSchedule initial, Time delta,
                                           Time replan_deadline)
    : RecoveringController(std::make_unique<ReplayController>(std::move(initial)), delta,
                           replan_deadline) {}

void RecoveringController::mark_port(PortId port, PortSide side, bool failed) {
  const auto size = static_cast<std::size_t>(port) + 1;
  if (failed_in_.size() < size) failed_in_.resize(size, 0);
  if (failed_out_.size() < size) failed_out_.resize(size, 0);
  if (side == PortSide::kIngress || side == PortSide::kBoth) failed_in_[port] = failed;
  if (side == PortSide::kEgress || side == PortSide::kBoth) failed_out_[port] = failed;
}

bool RecoveringController::any_port_failed() const {
  for (const char f : failed_in_) {
    if (f) return true;
  }
  for (const char f : failed_out_) {
    if (f) return true;
  }
  return false;
}

void RecoveringController::on_port_failed(Time now, PortId port, PortSide side) {
  mark_port(port, side, true);
  if (!degraded_) degraded_since_ = now;
  degraded_ = true;
  replan_needed_ = true;
}

void RecoveringController::on_port_repaired(Time /*now*/, PortId port, PortSide side) {
  mark_port(port, side, false);
  if (replan_deadline_ > 0.0 && !recovery_.has_value() && !any_port_failed()) {
    // Hybrid grace window paid off: every port is back and no recovery plan
    // was ever built, so the original plan simply resumes — the fault cost
    // only the degraded interval, not a replan.
    degraded_ = false;
    replan_needed_ = false;
    degraded_since_ = -1.0;
    return;
  }
  // Capacity came back: re-plan so the repaired port rejoins service.
  replan_needed_ = true;
}

void RecoveringController::on_setup_degraded(Time /*now*/,
                                             const CircuitAssignment& /*requested*/,
                                             const std::vector<Circuit>& /*established*/) {
  // A partial or failed setup broke the current plan's service matrix:
  // whatever did not latch is still in the residual, so re-plan it.
  degraded_ = true;
  replan_needed_ = true;
}

std::optional<CircuitAssignment> RecoveringController::next_assignment(Time now,
                                                                       const Matrix& residual) {
  if (!degraded_) return inner_->next_assignment(now, residual);
  const auto down = [](const std::vector<char>& mask, int p) {
    return p < static_cast<int>(mask.size()) && mask[p];
  };
  if (replan_deadline_ > 0.0 && !recovery_.has_value() && degraded_since_ >= 0.0 &&
      now + kTimeEps < degraded_since_ + replan_deadline_) {
    // Hybrid grace window: ride the old plan's surviving circuits while the
    // repair bet is still open.  A proposal with no live useful circuit
    // means waiting can only idle the fabric, so fall through and replan
    // early instead of burning the rest of the deadline.
    auto next = inner_->next_assignment(now, residual);
    if (next.has_value()) {
      for (const Circuit& c : next->circuits) {
        if (down(failed_in_, c.in) || down(failed_out_, c.out)) continue;
        if (residual.at(c.in, c.out) >= kMinServiceQuantum) return next;
      }
    }
    // Inner exhausted or fully blocked: the recovery planner takes over now.
  }
  const auto deliverable = [&]() {
    for (int i = 0; i < residual.n(); ++i) {
      if (down(failed_in_, i)) continue;
      for (int j = 0; j < residual.n(); ++j) {
        if (down(failed_out_, j)) continue;
        if (residual.at(i, j) >= kMinServiceQuantum) return true;
      }
    }
    return false;
  };
  // At most two planning rounds per decision: one because a fault was
  // just observed, one because the previous plan ran dry mid-decision.
  for (int round = 0; round < 2; ++round) {
    if (replan_needed_ || !recovery_.has_value()) {
      if (!deliverable()) return std::nullopt;  // rest is stranded until repair
      recovery_.emplace(residual, failed_in_, failed_out_, delta_);
      replan_needed_ = false;
      ++replans_;
      if (obs::enabled()) {
        obs::metrics().counter("faults.replans").inc();
        // A recovery replan IS the incident the flight recorder exists
        // for: dump the lead-up (port faults, degraded setups, cuts).
        obs::flight_recorder().record("recovery_replan", now,
                                      static_cast<std::int64_t>(replans_),
                                      residual.total());
        obs::flight_recorder().trigger("recovering-controller replan");
      }
    }
    while (std::optional<CircuitAssignment> next = recovery_->next()) {
      if (serves_residual(*next, residual)) return next;
    }
    replan_needed_ = true;  // plan exhausted; residual may still hold demand
  }
  return std::nullopt;
}

}  // namespace reco::sim
