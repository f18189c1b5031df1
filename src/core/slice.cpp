#include "core/slice.hpp"

#include <algorithm>
#include <map>
#include <tuple>

namespace reco {

bool is_port_feasible(const SliceSchedule& schedule) {
  // Sweep each port's slices sorted by start; neighbours must not overlap.
  // Two passes (ingress then egress) with a shared helper.
  const auto check_axis = [&](bool ingress) {
    std::map<PortId, std::vector<const FlowSlice*>> by_port;
    for (const FlowSlice& s : schedule) {
      if (s.end < s.start - kTimeEps) return false;
      by_port[ingress ? s.src : s.dst].push_back(&s);
    }
    for (auto& [port, slices] : by_port) {
      std::sort(slices.begin(), slices.end(),
                [](const FlowSlice* a, const FlowSlice* b) { return a->start < b->start; });
      for (std::size_t k = 1; k < slices.size(); ++k) {
        if (slices[k]->start < slices[k - 1]->end - kTimeEps) return false;
      }
    }
    return true;
  };
  return check_axis(true) && check_axis(false);
}

bool satisfies_demands(const SliceSchedule& schedule, const std::vector<Coflow>& coflows) {
  std::map<std::tuple<CoflowId, PortId, PortId>, Time> served;
  for (const FlowSlice& s : schedule) {
    served[{s.coflow, s.src, s.dst}] += s.duration();
  }
  // Per-flow tolerance: a flow may be served by many slices.
  const double eps = kTimeEps * std::max<std::size_t>(1, schedule.size());
  for (const Coflow& c : coflows) {
    for (int i = 0; i < c.demand.n(); ++i) {
      for (int j = 0; j < c.demand.n(); ++j) {
        const double want = c.demand.at(i, j);
        const auto it = served.find({c.id, i, j});
        const double got = it == served.end() ? 0.0 : it->second;
        if (std::abs(got - want) > eps) return false;
      }
    }
  }
  // Also reject slices for flows with no demand.
  for (const auto& [key, got] : served) {
    const auto [k, i, j] = key;
    bool found = false;
    for (const Coflow& c : coflows) {
      if (c.id == k) {
        found = true;
        if (approx_zero(c.demand.at(i, j)) && !approx_zero(got)) return false;
      }
    }
    if (!found && !approx_zero(got)) return false;
  }
  return true;
}

std::vector<Time> completion_times(const SliceSchedule& schedule, int num_coflows) {
  std::vector<Time> cct(num_coflows, 0.0);
  for (const FlowSlice& s : schedule) {
    if (s.coflow >= 0 && s.coflow < num_coflows) {
      cct[s.coflow] = std::max(cct[s.coflow], s.end);
    }
  }
  return cct;
}

Time total_weighted_cct(const std::vector<Time>& cct, const std::vector<Coflow>& coflows) {
  Time sum = 0.0;
  for (const Coflow& c : coflows) {
    if (c.id >= 0 && c.id < static_cast<CoflowId>(cct.size())) {
      sum += c.weight * (cct[c.id] - c.arrival);
    }
  }
  return sum;
}

std::vector<Time> start_batches(const SliceSchedule& schedule) {
  std::vector<Time> batches;
  batches.reserve(schedule.size());
  for (const FlowSlice& s : schedule) batches.push_back(s.start);
  std::sort(batches.begin(), batches.end());
  // Chain dedup: compare each start against the last *kept* batch time.
  std::size_t kept = 0;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    if (kept == 0 || !approx_eq(batches[kept - 1], batches[k])) batches[kept++] = batches[k];
  }
  batches.resize(kept);
  return batches;
}

Time makespan(const SliceSchedule& schedule) {
  Time m = 0.0;
  for (const FlowSlice& s : schedule) m = std::max(m, s.end);
  return m;
}

}  // namespace reco
