#include "sched/packet_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace reco {

namespace {

/// Place every flow in scratch.flows (LPT order) for one coflow: each takes
/// the earliest slot simultaneously free on its ingress and egress port.
void place_coflow_flows(PacketScratch& scratch, CoflowId id, SliceSchedule& out) {
  // Longest flows first: within a coflow this is the LPT heuristic that
  // keeps the coflow's own port makespans balanced.
  std::sort(scratch.flows.begin(), scratch.flows.end(),
            [](const PacketFlow& a, const PacketFlow& b) { return a.size > b.size; });
  for (const PacketFlow& f : scratch.flows) {
    PortTimeline& in = scratch.ingress[f.src];
    PortTimeline& eg = scratch.egress[f.dst];
    const Time t = earliest_common_fit(in, eg, f.size);
    const Time end = t + f.size;
    out.push_back({t, end, f.src, f.dst, id});
    in.insert(t, end);
    eg.insert(t, end);
  }
}

void reset_timelines(PacketScratch& scratch, int n) {
  scratch.ingress.resize(n);
  scratch.egress.resize(n);
  for (PortTimeline& t : scratch.ingress) t.clear();
  for (PortTimeline& t : scratch.egress) t.clear();
}

/// The timelines are sized from the first demand's port count `n`, so every
/// `order` entry must index one of the `count` demands and every demand it
/// names must have `n` ports; anything else would index past a buffer.
template <class PortCount>
void check_order(const std::vector<int>& order, std::size_t count, int n, PortCount port_count) {
  for (const int idx : order) {
    if (idx < 0 || static_cast<std::size_t>(idx) >= count) {
      throw std::invalid_argument("packet_schedule_into: order entry " + std::to_string(idx) +
                                  " is out of range for " + std::to_string(count) + " coflows");
    }
    if (const int ports = port_count(idx); ports != n) {
      throw std::invalid_argument("packet_schedule_into: coflow " + std::to_string(idx) +
                                  " has " + std::to_string(ports) + " ports, the first has " +
                                  std::to_string(n));
    }
  }
}

}  // namespace

SliceSchedule packet_schedule(const std::vector<Coflow>& coflows, const std::vector<int>& order) {
  PacketScratch scratch;
  SliceSchedule out;
  packet_schedule_into(coflows, order, scratch, out);
  return out;
}

void packet_schedule_into(const std::vector<Coflow>& coflows, const std::vector<int>& order,
                          PacketScratch& scratch, SliceSchedule& out) {
  obs::ScopedSpan span("sched.packet_schedule", "sched");
  out.clear();
  if (order.empty()) return;
  const int n = coflows.empty() ? 0 : coflows.front().demand.n();
  check_order(order, coflows.size(), n, [&](int idx) { return coflows[idx].demand.n(); });
  reset_timelines(scratch, n);

  for (int idx : order) {
    const Coflow& c = coflows[idx];
    scratch.flows.clear();
    scratch.flows.reserve(c.demand.nnz());
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        const Time d = c.demand.at(i, j);
        if (!approx_zero(d)) scratch.flows.push_back({i, j, d});
      }
    }
    place_coflow_flows(scratch, c.id, out);
  }
  span.arg("flows", static_cast<double>(out.size()));
}

void packet_schedule_into(const std::vector<const SupportIndex*>& residuals,
                          const std::vector<CoflowId>& ids, const std::vector<int>& order,
                          PacketScratch& scratch, SliceSchedule& out) {
  obs::ScopedSpan span("sched.packet_schedule", "sched");
  out.clear();
  if (order.empty()) return;
  if (residuals.size() != ids.size()) {
    throw std::invalid_argument("packet_schedule_into: residuals/ids size mismatch");
  }
  const int n = residuals.empty() ? 0 : residuals.front()->n();
  check_order(order, residuals.size(), n, [&](int idx) { return residuals[idx]->n(); });
  reset_timelines(scratch, n);

  for (int idx : order) {
    const SupportIndex& r = *residuals[idx];
    scratch.flows.clear();
    scratch.flows.reserve(r.nnz());
    // Support lists are sorted ascending, so this visits the same flows in
    // the same order as the dense (i, j) scan of the coflow overload.
    for (int i = 0; i < n; ++i) {
      const auto cols = r.row_support(i);
      const auto vals = r.row_values(i);
      for (int k = 0; k < cols.size(); ++k) scratch.flows.push_back({i, cols[k], vals[k]});
    }
    place_coflow_flows(scratch, ids[idx], out);
  }
  span.arg("flows", static_cast<double>(out.size()));
}

}  // namespace reco
