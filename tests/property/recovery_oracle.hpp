// Test oracle for the recovery path, frozen as the production code ran it
// before recovery plans were pulled from a SurvivingCursor: every replan
// builds the whole surviving-ports Reco-Sin schedule (mask -> reco_sin ->
// prune) and replays it through a ReplayController, and the next replan
// throws the unplayed rest away.  RecoveringController must match it
// decision for decision: same simulation report, same replan count.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/types.hpp"
#include "sched/reco_sin.hpp"
#include "sim/controller.hpp"

namespace reco::oracle {

inline bool port_down(const std::vector<char>& mask, int p) {
  return p >= 0 && p < static_cast<int>(mask.size()) && mask[p];
}

/// The whole recovery plan at once: mask the failed rows and columns,
/// run Reco-Sin, drop circuits on failed ports and assignments left empty.
inline CircuitSchedule materialized_surviving_plan(const Matrix& residual,
                                                   const std::vector<char>& failed_in,
                                                   const std::vector<char>& failed_out,
                                                   Time delta) {
  Matrix masked = residual;
  for (int i = 0; i < masked.n(); ++i) {
    for (int j = 0; j < masked.n(); ++j) {
      if (port_down(failed_in, i) || port_down(failed_out, j)) masked.at(i, j) = 0.0;
    }
  }
  const CircuitSchedule plan = reco_sin(masked, delta);
  CircuitSchedule pruned;
  for (const CircuitAssignment& a : plan.assignments) {
    CircuitAssignment kept;
    kept.duration = a.duration;
    for (const Circuit& c : a.circuits) {
      if (!port_down(failed_in, c.in) && !port_down(failed_out, c.out)) {
        kept.circuits.push_back(c);
      }
    }
    if (!kept.circuits.empty()) pruned.assignments.push_back(std::move(kept));
  }
  return pruned;
}

/// The same plan as the production path hands it out: a SurvivingCursor,
/// drained.
inline CircuitSchedule drained_surviving_plan(const Matrix& residual,
                                              const std::vector<char>& failed_in,
                                              const std::vector<char>& failed_out, Time delta) {
  SurvivingCursor cursor(residual, failed_in, failed_out, delta);
  CircuitSchedule plan;
  while (std::optional<CircuitAssignment> a = cursor.next()) {
    plan.assignments.push_back(std::move(*a));
  }
  return plan;
}

/// sim::RecoveringController with a materialized recovery plan, telemetry
/// left out (it never fed a decision).
class MaterializingRecoveringController final : public sim::CircuitController {
 public:
  MaterializingRecoveringController(CircuitSchedule initial, Time delta, Time replan_deadline)
      : inner_(std::make_unique<sim::ReplayController>(std::move(initial))),
        delta_(delta),
        replan_deadline_(replan_deadline) {}

  std::optional<CircuitAssignment> next_assignment(Time now, const Matrix& residual) override {
    if (!degraded_) return inner_->next_assignment(now, residual);
    if (replan_deadline_ > 0.0 && !recovery_.has_value() && degraded_since_ >= 0.0 &&
        now + kTimeEps < degraded_since_ + replan_deadline_) {
      auto next = inner_->next_assignment(now, residual);
      if (next.has_value()) {
        for (const Circuit& c : next->circuits) {
          if (port_down(failed_in_, c.in) || port_down(failed_out_, c.out)) continue;
          if (residual.at(c.in, c.out) >= kMinServiceQuantum) return next;
        }
      }
    }
    const auto deliverable = [&]() {
      for (int i = 0; i < residual.n(); ++i) {
        if (port_down(failed_in_, i)) continue;
        for (int j = 0; j < residual.n(); ++j) {
          if (port_down(failed_out_, j)) continue;
          if (residual.at(i, j) >= kMinServiceQuantum) return true;
        }
      }
      return false;
    };
    for (int round = 0; round < 2; ++round) {
      if (replan_needed_ || !recovery_.has_value()) {
        if (!deliverable()) return std::nullopt;
        recovery_.emplace(materialized_surviving_plan(residual, failed_in_, failed_out_, delta_));
        replan_needed_ = false;
        ++replans_;
      }
      auto next = recovery_->next_assignment(now, residual);
      if (next.has_value()) return next;
      replan_needed_ = true;
    }
    return std::nullopt;
  }

  void on_port_failed(Time now, PortId port, sim::PortSide side) override {
    mark_port(port, side, true);
    if (!degraded_) degraded_since_ = now;
    degraded_ = true;
    replan_needed_ = true;
  }

  void on_port_repaired(Time /*now*/, PortId port, sim::PortSide side) override {
    mark_port(port, side, false);
    if (replan_deadline_ > 0.0 && !recovery_.has_value() && !any_port_failed()) {
      degraded_ = false;
      replan_needed_ = false;
      degraded_since_ = -1.0;
      return;
    }
    replan_needed_ = true;
  }

  void on_setup_degraded(Time /*now*/, const CircuitAssignment& /*requested*/,
                         const std::vector<Circuit>& /*established*/) override {
    degraded_ = true;
    replan_needed_ = true;
  }

  int replans() const { return replans_; }

 private:
  void mark_port(PortId port, sim::PortSide side, bool failed) {
    const auto size = static_cast<std::size_t>(port) + 1;
    if (failed_in_.size() < size) failed_in_.resize(size, 0);
    if (failed_out_.size() < size) failed_out_.resize(size, 0);
    if (side == sim::PortSide::kIngress || side == sim::PortSide::kBoth) failed_in_[port] = failed;
    if (side == sim::PortSide::kEgress || side == sim::PortSide::kBoth) failed_out_[port] = failed;
  }

  bool any_port_failed() const {
    for (const char f : failed_in_) {
      if (f) return true;
    }
    for (const char f : failed_out_) {
      if (f) return true;
    }
    return false;
  }

  std::unique_ptr<sim::CircuitController> inner_;
  Time delta_;
  Time replan_deadline_;
  std::vector<char> failed_in_;
  std::vector<char> failed_out_;
  bool degraded_ = false;
  bool replan_needed_ = false;
  Time degraded_since_ = -1.0;
  std::optional<sim::ReplayController> recovery_;
  int replans_ = 0;
};

}  // namespace reco::oracle
