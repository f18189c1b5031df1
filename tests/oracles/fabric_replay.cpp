#include "oracles/fabric_replay.hpp"

#include <algorithm>
#include <numeric>

namespace reco::oracle {

namespace {

/// Mean busy/horizon over ports that carried any traffic.
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

}  // namespace

sim::SimulationReport simulate_not_all_stop_replay(const CircuitSchedule& schedule,
                                                   const Matrix& demand, Time delta,
                                                   const sim::FaultConfig& faults) {
  sim::FaultInjector injector(faults);  // validates; default = ideal switch
  sim::SimulationReport report;
  const int n = demand.n();
  injector.bind_ports(n);
  Matrix residual = demand;
  std::vector<Time> busy_in(n, 0.0);
  std::vector<Time> busy_out(n, 0.0);
  std::vector<Time> free_in(n, 0.0);
  std::vector<Time> free_out(n, 0.0);
  std::vector<int> peer_of_in(n, -1);
  std::vector<int> peer_of_out(n, -1);
  Time cct = 0.0;

  // Per-circuit timing is decided up front (ports are independent in the
  // not-all-stop model): each served circuit is one drain event, and a
  // stable sort puts the completions in time order, circuit order breaking
  // ties.  Setup faults are sampled in this same deterministic order.
  for (const CircuitAssignment& a : schedule.assignments) {
    for (const Circuit& c : a.circuits) {
      const Time rem = residual.at(c.in, c.out);
      if (rem < kMinServiceQuantum) continue;
      Time ready = std::max(free_in[c.in], free_out[c.out]);
      const bool changed = peer_of_in[c.in] != c.out || peer_of_out[c.out] != c.in;
      if (changed) {
        const sim::SetupOutcome outcome = injector.sample_setup(delta, {});
        ++report.reconfigurations;
        report.reconfiguration_time += outcome.setup_time;
        if (!outcome.established) {
          // Setup budget exhausted: the circuit never comes up.  The ports
          // burn the attempt time and keep their previous peers.
          ++report.setup_failures;
          free_in[c.in] = std::max(free_in[c.in], ready + outcome.setup_time);
          free_out[c.out] = std::max(free_out[c.out], ready + outcome.setup_time);
          continue;
        }
        ready += outcome.setup_time;
      }
      const Time hold = std::min(a.duration, rem);
      const Time end = ready + hold;
      residual.at(c.in, c.out) = clamp_zero(rem - hold);
      report.transmission_time += hold;
      report.delivered_demand += hold;
      busy_in[c.in] += hold;
      busy_out[c.out] += hold;
      free_in[c.in] = end;
      free_out[c.out] = end;
      peer_of_in[c.in] = c.out;
      peer_of_out[c.out] = c.in;
      cct = std::max(cct, end);
      ++report.events;
      if (residual.at(c.in, c.out) < kMinServiceQuantum) report.completions.push_back({c, end});
    }
  }
  std::stable_sort(report.completions.begin(), report.completions.end(),
                   [](const sim::FlowCompletion& a, const sim::FlowCompletion& b) {
                     return a.completed_at < b.completed_at;
                   });

  report.cct = cct;
  report.satisfied = residual.max_entry() < kMinServiceQuantum;
  report.stranded_demand = residual.total();
  report.avg_port_utilization = utilization(busy_in, busy_out, report.cct);
  return report;
}

SliceReplayReport simulate_slice_schedule(const SliceSchedule& schedule, int num_ports,
                                          int num_coflows) {
  SliceReplayReport report;
  report.cct.assign(num_coflows, 0.0);
  std::vector<Time> busy_in(num_ports, 0.0);
  std::vector<Time> busy_out(num_ports, 0.0);
  // Runtime occupancy: which slice currently owns each port.
  std::vector<int> in_owner(num_ports, -1);
  std::vector<int> out_owner(num_ports, -1);

  // Two events per slice, swept in time order: index k < F ends slice k,
  // and index F + k starts it.  The sort is stable, so at equal times ends
  // run before starts and a port hand-off (A ends exactly when B starts)
  // is not a violation.
  const std::size_t num_slices = schedule.size();
  std::vector<std::size_t> events(2 * num_slices);
  std::iota(events.begin(), events.end(), std::size_t{0});
  const auto event_time = [&](std::size_t k) {
    return k < num_slices ? schedule[k].end : schedule[k - num_slices].start;
  };
  std::stable_sort(events.begin(), events.end(),
                   [&](std::size_t a, std::size_t b) { return event_time(a) < event_time(b); });
  for (const std::size_t k : events) {
    const Time now = event_time(k);
    if (k < num_slices) {
      const FlowSlice& slice = schedule[k];
      if (in_owner[slice.src] == static_cast<int>(k)) in_owner[slice.src] = -1;
      if (out_owner[slice.dst] == static_cast<int>(k)) out_owner[slice.dst] = -1;
      busy_in[slice.src] += slice.duration();
      busy_out[slice.dst] += slice.duration();
      if (slice.coflow >= 0 && slice.coflow < num_coflows) {
        report.cct[slice.coflow] = std::max(report.cct[slice.coflow], now);
      }
      report.makespan = std::max(report.makespan, now);
      continue;
    }
    const std::size_t f = k - num_slices;
    const FlowSlice& slice = schedule[f];
    // A port still owned by a slice whose end is due within tolerance of
    // "now" is a hand-off racing float round-off, not a violation.
    const auto is_conflict = [&](int owner) {
      return owner != -1 && schedule[owner].end > now + kTimeEps;
    };
    if (is_conflict(in_owner[slice.src]) || is_conflict(out_owner[slice.dst])) {
      ++report.port_violations;
    }
    in_owner[slice.src] = static_cast<int>(f);
    out_owner[slice.dst] = static_cast<int>(f);
  }
  report.events = events.size();
  report.avg_port_utilization = utilization(busy_in, busy_out, report.makespan);
  return report;
}

}  // namespace reco::oracle
