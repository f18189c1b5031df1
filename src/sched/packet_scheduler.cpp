#include "sched/packet_scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace reco {

void PortTimeline::throw_below_floor(Time d, Time min_len) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "PortTimeline::earliest_fit: query length %.17g is below the floor %.17g "
                "the timeline was reset with",
                d, min_len);
  throw std::logic_error(buf);
}

namespace {

/// Place every flow in scratch.flows (LPT order) for one coflow: each takes
/// the earliest slot simultaneously free on its ingress and egress port.
void place_coflow_flows(PacketScratch& scratch, CoflowId id, SliceSchedule& out) {
  // Longest flows first: within a coflow this is the LPT heuristic that
  // keeps the coflow's own port makespans balanced.
  std::sort(scratch.flows.begin(), scratch.flows.end(),
            [](const PacketFlow& a, const PacketFlow& b) { return a.size > b.size; });
  for (const PacketFlow& f : scratch.flows) {
    const Time t = place_common(scratch.ingress[f.src], scratch.egress[f.dst], f.size);
    out.push_back({t, t + f.size, f.src, f.dst, id});
  }
}

/// Size the timelines for `n` ports and empty them, with the call's
/// shortest flow as their floor.
void reset_timelines(PacketScratch& scratch, int n, Time min_len) {
  scratch.ingress.resize(n);
  scratch.egress.resize(n);
  for (PortTimeline& t : scratch.ingress) t.reset(min_len);
  for (PortTimeline& t : scratch.egress) t.reset(min_len);
}

/// Stored intervals over all port timelines: the `intervals` span arg.
double stored_intervals(const PacketScratch& scratch) {
  std::size_t total = 0;
  for (const PortTimeline& t : scratch.ingress) total += t.size();
  for (const PortTimeline& t : scratch.egress) total += t.size();
  return static_cast<double>(total);
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
  Time min_len = std::numeric_limits<Time>::infinity();
  for (int idx : order) {
    const Matrix& m = coflows[idx].demand;
    for (int i = 0; i < n; ++i) {
      const double* row = m.row_data(i);
      for (int j = 0; j < n; ++j) {
        if (!approx_zero(row[j])) min_len = std::min(min_len, row[j]);
      }
    }
  }
  reset_timelines(scratch, n, min_len);

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
  if (obs::enabled()) span.arg("intervals", stored_intervals(scratch));
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
  Time min_len = std::numeric_limits<Time>::infinity();
  for (int idx : order) {
    const SupportIndex& r = *residuals[idx];
    for (int i = 0; i < n; ++i) {
      const double* row = r.matrix().row_data(i);
      for (const int j : r.row_support(i)) min_len = std::min(min_len, row[j]);
    }
  }
  reset_timelines(scratch, n, min_len);

  for (int idx : order) {
    const SupportIndex& r = *residuals[idx];
    scratch.flows.clear();
    scratch.flows.reserve(r.nnz());
    // Support lists are sorted ascending, so this visits the same flows in
    // the same order as the dense (i, j) scan of the coflow overload.
    for (int i = 0; i < n; ++i) {
      const double* row = r.matrix().row_data(i);
      for (const int j : r.row_support(i)) scratch.flows.push_back({i, j, row[j]});
    }
    place_coflow_flows(scratch, ids[idx], out);
  }
  span.arg("flows", static_cast<double>(out.size()));
  if (obs::enabled()) span.arg("intervals", stored_intervals(scratch));
}

}  // namespace reco
