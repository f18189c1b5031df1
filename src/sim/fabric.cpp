#include "sim/fabric.hpp"

#include <algorithm>
#include <optional>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "trace/rng.hpp"

namespace reco::sim {

namespace {

/// Mean busy/cct over ports that carried any traffic.
double utilization(const std::vector<Time>& busy_in, const std::vector<Time>& busy_out,
                   Time horizon) {
  if (horizon <= 0.0) return 0.0;
  double sum = 0.0;
  int active = 0;
  for (const auto* busy : {&busy_in, &busy_out}) {
    for (Time b : *busy) {
      if (b > 0.0) {
        sum += b / horizon;
        ++active;
      }
    }
  }
  return active > 0 ? sum / active : 0.0;
}

/// Time order; flows that complete at one instant keep the order in which
/// they drained.
void sort_by_completion(std::vector<FlowCompletion>& completions) {
  std::stable_sort(completions.begin(), completions.end(),
                   [](const FlowCompletion& a, const FlowCompletion& b) {
                     return a.completed_at < b.completed_at;
                   });
}

/// Sim-pid track carrying fabric-level circuit events (coflow tracks are
/// the non-negative ids, so the fabric track sits below them).
constexpr int kFabricTrack = -1;

}  // namespace

SimulationReport simulate_single_coflow(CircuitController& controller, const Matrix& demand,
                                        Time delta, const FaultConfig& faults) {
  FaultInjector injector(faults);
  obs::ScopedSpan span("sim.single_coflow", "sim");
  if (obs::enabled()) obs::tracer().name_sim_track(kFabricTrack, "fabric");
  SimulationReport report;
  const int n = demand.n();
  span.arg("n", n);
  injector.bind_ports(n);
  Matrix residual = demand;
  std::vector<Time> busy_in(n, 0.0);
  std::vector<Time> busy_out(n, 0.0);

  // Port liveness mirrors of the injector's state, maintained transition
  // by transition so degraded time can be integrated interval-exactly.
  std::vector<int> in_down(n, 0);
  std::vector<int> out_down(n, 0);
  int down_ports = 0;
  Time degraded_mark = 0.0;
  bool degraded = false;         ///< a fault happened; next delivery is a recovery
  Time degraded_since = -1.0;    ///< for the recovery trace span
  const auto circuit_live = [&](const Circuit& c) {
    return in_down[c.in] == 0 && out_down[c.out] == 0;
  };

  // Pop the injector's port transitions up to `now`: integrate degraded
  // time, update the masks, and notify the controller.  Faults land at
  // decision granularity — a port failing mid-hold keeps its mirror angle
  // until the next reconfiguration (flow-level semantics).
  const auto apply_faults = [&](Time now) {
    for (const PortTransition& t : injector.advance_to(now)) {
      const Time at = std::max(t.at, 0.0);
      if (down_ports > 0 && at > degraded_mark) report.degraded_time += at - degraded_mark;
      degraded_mark = std::max(degraded_mark, at);
      const int d = t.up ? -1 : 1;
      const bool was_down = in_down[t.port] > 0 || out_down[t.port] > 0;
      if (t.side == PortSide::kIngress || t.side == PortSide::kBoth) {
        in_down[t.port] = std::max(0, in_down[t.port] + d);
      }
      if (t.side == PortSide::kEgress || t.side == PortSide::kBoth) {
        out_down[t.port] = std::max(0, out_down[t.port] + d);
      }
      const bool now_down = in_down[t.port] > 0 || out_down[t.port] > 0;
      if (!was_down && now_down) ++down_ports;
      if (was_down && !now_down) --down_ports;
      if (t.up) {
        ++report.port_repairs;
        if (obs::enabled()) {
          obs::metrics().counter("faults.port_repairs").inc();
          obs::tracer().sim_instant("port.repair", "sim.fault", at, kFabricTrack,
                                    {{"port", static_cast<double>(t.port)}});
          obs::flight_recorder().record("port_repair", at, t.port,
                                        static_cast<double>(t.side));
        }
        controller.on_port_repaired(at, t.port, t.side);
      } else {
        ++report.port_failures;
        degraded = true;
        if (degraded_since < 0.0) degraded_since = at;
        if (obs::enabled()) {
          obs::metrics().counter("faults.port_failures").inc();
          obs::tracer().sim_instant("port.fail", "sim.fault", at, kFabricTrack,
                                    {{"port", static_cast<double>(t.port)}});
          obs::flight_recorder().record("port_fail", at, t.port,
                                        static_cast<double>(t.side));
        }
        controller.on_port_failed(at, t.port, t.side);
      }
    }
    if (down_ports > 0 && now > degraded_mark) report.degraded_time += now - degraded_mark;
    degraded_mark = std::max(degraded_mark, now);
  };

  // Terminal guard: a controller that keeps proposing establishments the
  // fabric cannot use (dead ports, drained circuits) must not spin.  After
  // kUselessLimit fruitless decisions we either jump to the next fault
  // transition (a repair may unblock the controller) or, with nothing
  // pending, end the run with the residual accounted as stranded.
  constexpr int kUselessLimit = 8;
  int useless_streak = 0;

  // The decision loop: decide -> (reconfigure) -> hold -> decide ...  Each
  // pass is one decision, and `next` is the time of the following one, if
  // any: after a hold, after a fruitless or failed setup, or at a pending
  // fault transition.  A pass that sets none ends the run.
  std::optional<Time> next = 0.0;
  Time now = 0.0;
  while (next.has_value()) {
    now = *next;
    next.reset();
    ++report.events;
    apply_faults(now);
    const auto proposed = controller.next_assignment(now, residual);
    if (!proposed.has_value()) {
      // Controller stopped.  If deliverable-later demand remains and a
      // repair is pending, idle until the repair and ask again; otherwise
      // the sim ends (leftovers become stranded).
      if (residual.max_entry() >= kMinServiceQuantum) {
        if (const auto repair = injector.next_repair();
            repair.has_value() && *repair > now + kTimeEps) {
          next = *repair;
        }
      }
      continue;
    }

    // Keep only circuits on live ports; ignore establishments with nothing
    // useful to send (no delta charged).
    const CircuitAssignment& assignment = *proposed;
    std::vector<Circuit> live;
    live.reserve(assignment.circuits.size());
    Time max_rem = 0.0;
    for (const Circuit& c : assignment.circuits) {
      if (!circuit_live(c)) continue;
      live.push_back(c);
      const Time rem = residual.at(c.in, c.out);
      if (rem >= kMinServiceQuantum) max_rem = std::max(max_rem, rem);
    }
    if (max_rem == 0.0) {
      if (++useless_streak >= kUselessLimit) {
        useless_streak = 0;
        if (const auto t = injector.next_transition();
            t.has_value() && *t > now + kTimeEps) {
          next = *t;
        }
        continue;  // nothing will change: terminate with stranded accounting
      }
      next = now;  // ask again immediately
      continue;
    }
    useless_streak = 0;

    const SetupOutcome outcome = injector.sample_setup(delta, live);
    ++report.reconfigurations;
    report.reconfiguration_time += outcome.setup_time;
    if (obs::enabled()) {
      obs::metrics().counter("faults.setup_attempts").inc(outcome.attempts);
    }
    if (!outcome.established) {
      // Attempt budget exhausted: the setup failed — account and move on
      // rather than looping (the time was still burned).
      ++report.setup_failures;
      degraded = true;
      if (degraded_since < 0.0) degraded_since = now;
      if (obs::enabled()) {
        obs::metrics().counter("faults.setup_failures").inc();
        obs::tracer().sim_instant("setup.failed", "sim.fault", now + outcome.setup_time,
                                  kFabricTrack,
                                  {{"attempts", static_cast<double>(outcome.attempts)}});
        obs::flight_recorder().record("setup_failed", now + outcome.setup_time,
                                      static_cast<std::int64_t>(live.size()),
                                      static_cast<double>(outcome.attempts));
      }
      controller.on_setup_degraded(now + outcome.setup_time, assignment, {});
      next = now + outcome.setup_time;
      continue;
    }
    const std::vector<Circuit>& circuits = outcome.established_circuits;
    if (circuits.size() < live.size()) {
      ++report.partial_setups;
      degraded = true;
      if (degraded_since < 0.0) degraded_since = now;
      if (obs::enabled()) {
        obs::metrics().counter("faults.partial_setups").inc();
        obs::tracer().sim_instant(
            "setup.partial", "sim.fault", now + outcome.setup_time, kFabricTrack,
            {{"requested", static_cast<double>(live.size())},
             {"established", static_cast<double>(circuits.size())}});
        obs::flight_recorder().record("setup_partial", now + outcome.setup_time,
                                      static_cast<std::int64_t>(circuits.size()),
                                      static_cast<double>(live.size()));
      }
      controller.on_setup_degraded(now + outcome.setup_time, assignment, circuits);
    }
    // Hold until the largest residual among what actually latched drains.
    Time est_rem = 0.0;
    for (const Circuit& c : circuits) {
      const Time rem = residual.at(c.in, c.out);
      if (rem >= kMinServiceQuantum) est_rem = std::max(est_rem, rem);
    }
    if (est_rem == 0.0) {
      // Every useful crosspoint failed to latch: time is spent, re-decide.
      next = now + outcome.setup_time;
      continue;
    }

    // The hold: the latched circuits come up once the setup ends and
    // transmit for `hold`; the next decision follows when it drains.
    const Time hold = std::min(assignment.duration, est_rem);
    const Time start = now + outcome.setup_time;
    ++report.events;
    report.transmission_time += hold;
    if (obs::enabled()) {
      obs::tracer().sim_instant("circuit.establish", "sim.circuit", start, kFabricTrack,
                                {{"circuits", static_cast<double>(circuits.size())}});
      obs::tracer().sim_span("hold", "sim.circuit", start, start + hold, kFabricTrack,
                             {{"circuits", static_cast<double>(circuits.size())}});
    }
    Time delivered_this_hold = 0.0;
    for (const Circuit& c : circuits) {
      const Time rem = residual.at(c.in, c.out);
      const Time sent = std::min(hold, rem);
      if (approx_zero(sent)) continue;
      residual.at(c.in, c.out) = clamp_zero(rem - sent);
      busy_in[c.in] += sent;
      busy_out[c.out] += sent;
      report.delivered_demand += sent;
      delivered_this_hold += sent;
      if (residual.at(c.in, c.out) < kMinServiceQuantum) {
        report.completions.push_back({c, start + sent});
        if (obs::enabled()) {
          obs::tracer().sim_instant("flow.complete", "sim.flow", start + sent, kFabricTrack,
                                    {{"in", static_cast<double>(c.in)},
                                     {"out", static_cast<double>(c.out)}});
        }
      }
    }
    if (degraded && delivered_this_hold > 0.0) {
      // Useful service resumed after a fault: one recovery.
      ++report.recoveries;
      degraded = false;
      if (obs::enabled()) {
        obs::metrics().counter("faults.recoveries").inc();
        if (degraded_since >= 0.0) {
          obs::tracer().sim_span("recovery", "sim.fault", degraded_since, start,
                                 kFabricTrack);
        }
      }
      degraded_since = -1.0;
    }
    if (obs::enabled()) {
      obs::tracer().sim_instant("circuit.teardown", "sim.circuit", start + hold, kFabricTrack);
    }
    next = start + hold;
  }

  sort_by_completion(report.completions);
  report.cct = now;
  if (down_ports > 0 && report.cct > degraded_mark) {
    report.degraded_time += report.cct - degraded_mark;
  }
  report.satisfied = residual.max_entry() < kMinServiceQuantum;
  report.stranded_demand = residual.total();
  report.avg_port_utilization = utilization(busy_in, busy_out, report.cct);
  if (obs::enabled()) {
    obs::metrics().counter("sim.reconfigurations").inc(report.reconfigurations);
    obs::metrics().counter("sim.reconfiguration_time").inc(report.reconfiguration_time);
    obs::metrics().counter("sim.transmission_time").inc(report.transmission_time);
    obs::metrics().counter("sim.events").inc(static_cast<double>(report.events));
    obs::metrics().counter("faults.stranded_demand").inc(report.stranded_demand);
    obs::metrics().counter("faults.degraded_time").inc(report.degraded_time);
    span.arg("reconfigurations", report.reconfigurations);
    span.arg("events", static_cast<double>(report.events));
  }
  return report;
}

}  // namespace reco::sim
