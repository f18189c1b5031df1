// Circuit controllers: the decision-making half of the event-driven
// simulator.  A controller is consulted every time the fabric goes idle
// and answers with the next circuit establishment (or none).
//
// Two families:
//  * replay controllers — walk a precomputed CircuitSchedule (Reco-Sin,
//    Solstice, ...); useful to cross-validate the analytic executors;
//  * adaptive controllers — decide from the live residual matrix, which
//    only an event-driven fabric can support.  GreedyMaxWeight is the
//    Helios control loop made adaptive: re-match on every wake-up.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/types.hpp"
#include "sched/reco_sin.hpp"
#include "sim/faults.hpp"

namespace reco::sim {

/// Strategy consulted by the fabric whenever it can reconfigure.
class CircuitController {
 public:
  virtual ~CircuitController() = default;

  /// Next establishment given the residual demand, or nullopt to stop.
  /// `now` is the simulation clock at the decision instant.
  virtual std::optional<CircuitAssignment> next_assignment(Time now,
                                                           const Matrix& residual) = 0;

  /// Fault notifications from the fabric (no-ops by default, so existing
  /// controllers are fault-oblivious and simply see their dead circuits
  /// filtered).  `on_setup_degraded` reports a setup that came up partial
  /// (`established` is the latched subset) or failed entirely (empty).
  virtual void on_port_failed(Time /*now*/, PortId /*port*/, PortSide /*side*/) {}
  virtual void on_port_repaired(Time /*now*/, PortId /*port*/, PortSide /*side*/) {}
  virtual void on_setup_degraded(Time /*now*/, const CircuitAssignment& /*requested*/,
                                 const std::vector<Circuit>& /*established*/) {}
};

/// Replays a precomputed schedule, skipping establishments whose circuits
/// have no residual demand left (mirrors the analytic executor).
class ReplayController final : public CircuitController {
 public:
  explicit ReplayController(CircuitSchedule schedule);
  std::optional<CircuitAssignment> next_assignment(Time now, const Matrix& residual) override;

 private:
  CircuitSchedule schedule_;
  std::size_t next_ = 0;
};

/// ReplayController(reco_sin(demand, delta)), decision for decision, with
/// the plan pulled from a RecoSinCursor instead of materialized: only the
/// assignments the run asks for are peeled, so a plan that a fault cuts
/// short (RecoveringController's inner plan) costs only what ran.
class RecoSinController final : public CircuitController {
 public:
  RecoSinController(Matrix demand, Time delta);
  std::optional<CircuitAssignment> next_assignment(Time now, const Matrix& residual) override;

 private:
  RecoSinCursor plan_;
};

/// Adaptive Helios-style policy: max-weight matching over the residual on
/// every decision, held until the largest matched residual drains.
class GreedyMaxWeightController final : public CircuitController {
 public:
  std::optional<CircuitAssignment> next_assignment(Time now, const Matrix& residual) override;
};

/// Adaptive regularization policy: Reco-Sin's max-min extraction applied
/// to the *residual* (re-regularized each round) instead of a precomputed
/// plan — measures what adaptivity adds on top of Algorithm 1.
class AdaptiveRecoController final : public CircuitController {
 public:
  explicit AdaptiveRecoController(Time delta);
  std::optional<CircuitAssignment> next_assignment(Time now, const Matrix& residual) override;

 private:
  Time delta_;
};

/// Degraded-operation wrapper: delegates to an inner controller until the
/// fabric reports a fault, then re-plans the *residual* demand on the
/// surviving ports via Reco-Sin (a SurvivingCursor) and pulls the recovery
/// plan one assignment per decision, skipping drained ones — replanning
/// again on every further failure, repair, or degraded setup.  The next
/// replan discards the cursor, so only the pulled assignments are ever
/// peeled.  When every remaining flow needs a dead port it stops,
/// so a run under permanent faults terminates with the undeliverable
/// demand accounted as stranded instead of hanging.
///
/// Hybrid replan-after-deadline (`replan_deadline > 0`): on a fault, keep
/// riding the surviving circuits of the *old* plan for up to
/// `replan_deadline` seconds, betting on a quick repair.  If every port
/// comes back before the first recovery plan is built, service continues
/// on the original plan with zero replans (wait-for-repair behavior); if
/// the deadline expires — or the old plan has no surviving useful circuit
/// left, so waiting would only idle the fabric — the recovery planner
/// takes over exactly as in the immediate-replan mode.  The deadline has
/// decision granularity: expiry is observed at the next decision instant.
/// `replan_deadline == 0` (default) is the historical immediate-replan
/// behavior, bit for bit.
class RecoveringController final : public CircuitController {
 public:
  RecoveringController(std::unique_ptr<CircuitController> inner, Time delta,
                       Time replan_deadline = 0.0);
  /// Convenience: recover over a precomputed schedule (wraps a
  /// ReplayController).  To recover over Reco-Sin's own plan without
  /// materializing it, pass a RecoSinController to the first constructor.
  RecoveringController(CircuitSchedule initial, Time delta, Time replan_deadline = 0.0);

  std::optional<CircuitAssignment> next_assignment(Time now, const Matrix& residual) override;
  void on_port_failed(Time now, PortId port, PortSide side) override;
  void on_port_repaired(Time now, PortId port, PortSide side) override;
  void on_setup_degraded(Time now, const CircuitAssignment& requested,
                         const std::vector<Circuit>& established) override;

  /// Number of recovery plans built so far.
  int replans() const { return replans_; }

 private:
  void mark_port(PortId port, PortSide side, bool failed);
  bool any_port_failed() const;

  std::unique_ptr<CircuitController> inner_;
  Time delta_;
  Time replan_deadline_;
  std::vector<char> failed_in_;
  std::vector<char> failed_out_;
  bool degraded_ = false;       ///< once true, the recovery planner owns the run
  bool replan_needed_ = false;
  Time degraded_since_ = -1.0;  ///< hybrid grace-window anchor (< 0: unset)
  std::optional<SurvivingCursor> recovery_;  ///< built in place; not movable
  int replans_ = 0;
};

}  // namespace reco::sim
