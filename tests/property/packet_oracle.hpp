// Test oracle for the packet scheduler: the linear-scan port timeline the
// scheduler used before busy intervals were coalesced (every interval kept
// as inserted, every query scanned from the first one), and twins of
// packet_schedule, its residual overload and sunflow() driven by it.  The
// production schedulers must match these slice for slice, bit for bit.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/coflow.hpp"
#include "core/slice.hpp"
#include "core/support_index.hpp"
#include "sched/sunflow.hpp"

namespace reco::oracle {

/// Busy intervals of one port, sorted by start, never merged.
class LinearPortTimeline {
 public:
  /// Earliest s >= t such that [s, s+d) is free on this port.
  Time earliest_fit(Time t, Time d) const {
    for (const auto& [busy_start, busy_end] : busy_) {
      if (busy_start - t >= d - kTimeEps) break;  // fits before this interval
      t = std::max(t, busy_end);
    }
    return t;
  }

  void insert(Time start, Time end) {
    const auto pos = std::lower_bound(
        busy_.begin(), busy_.end(), start,
        [](const std::pair<Time, Time>& iv, Time s) { return iv.first < s; });
    busy_.insert(pos, {start, end});
  }

 private:
  std::vector<std::pair<Time, Time>> busy_;
};

/// Earliest slot free on both ports: alternate a fixed point between the
/// two timelines.
inline Time earliest_common_fit(const LinearPortTimeline& in, const LinearPortTimeline& out,
                                Time d) {
  Time t = 0.0;
  while (true) {
    const Time t_in = in.earliest_fit(t, d);
    const Time t_both = out.earliest_fit(t_in, d);
    if (t_both <= t_in + kTimeEps && in.earliest_fit(t_both, d) <= t_both + kTimeEps) {
      return t_both;
    }
    t = t_both;
  }
}

struct Flow {
  int src = 0;
  int dst = 0;
  Time size = 0.0;
};

struct Ports {
  explicit Ports(int n) : ingress(n), egress(n) {}
  std::vector<LinearPortTimeline> ingress;
  std::vector<LinearPortTimeline> egress;
};

/// List-schedule one coflow's flows, longest first.
inline void place(std::vector<Flow> flows, CoflowId id, Ports& ports, SliceSchedule& out) {
  std::sort(flows.begin(), flows.end(),
            [](const Flow& a, const Flow& b) { return a.size > b.size; });
  for (const Flow& f : flows) {
    const Time t = earliest_common_fit(ports.ingress[f.src], ports.egress[f.dst], f.size);
    const Time end = t + f.size;
    out.push_back({t, end, f.src, f.dst, id});
    ports.ingress[f.src].insert(t, end);
    ports.egress[f.dst].insert(t, end);
  }
}

/// Twin of reco::packet_schedule.
inline SliceSchedule packet_schedule(const std::vector<Coflow>& coflows,
                                     const std::vector<int>& order) {
  SliceSchedule out;
  if (coflows.empty() || order.empty()) return out;
  const int n = coflows.front().demand.n();
  Ports ports(n);
  for (const int idx : order) {
    const Coflow& c = coflows[idx];
    std::vector<Flow> flows;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (!approx_zero(c.demand.at(i, j))) flows.push_back({i, j, c.demand.at(i, j)});
      }
    }
    place(std::move(flows), c.id, ports, out);
  }
  return out;
}

/// Twin of the residual (SupportIndex) overload of reco::packet_schedule_into.
inline SliceSchedule packet_schedule(const std::vector<const SupportIndex*>& residuals,
                                     const std::vector<CoflowId>& ids,
                                     const std::vector<int>& order) {
  SliceSchedule out;
  if (residuals.empty() || order.empty()) return out;
  const int n = residuals.front()->n();
  Ports ports(n);
  for (const int idx : order) {
    const SupportIndex& r = *residuals[idx];
    std::vector<Flow> flows;
    for (int i = 0; i < n; ++i) {
      for (const int j : r.row_support(i)) flows.push_back({i, j, r.at(i, j)});
    }
    place(std::move(flows), ids[idx], ports, out);
  }
  return out;
}

/// Twin of reco::sunflow: flows longest first, every circuit occupying its
/// ports for delta + size.
inline SunflowResult sunflow(const Matrix& demand, Time delta) {
  SunflowResult result;
  const int n = demand.n();
  std::vector<Flow> flows;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (!approx_zero(demand.at(i, j))) flows.push_back({i, j, demand.at(i, j)});
    }
  }
  std::sort(flows.begin(), flows.end(),
            [](const Flow& a, const Flow& b) { return a.size > b.size; });
  Ports ports(n);
  for (const Flow& f : flows) {
    const Time occupancy = delta + f.size;
    const Time t = earliest_common_fit(ports.ingress[f.src], ports.egress[f.dst], occupancy);
    const Time end = t + occupancy;
    ports.ingress[f.src].insert(t, end);
    ports.egress[f.dst].insert(t, end);
    result.schedule.push_back({t + delta, end, f.src, f.dst, 0});
    result.cct = std::max(result.cct, end);
    ++result.reconfigurations;
  }
  return result;
}

}  // namespace reco::oracle
