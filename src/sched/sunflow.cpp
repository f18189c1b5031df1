#include "sched/sunflow.hpp"

#include <algorithm>
#include <vector>

#include "sched/packet_scheduler.hpp"

namespace reco {

SunflowResult sunflow(const Matrix& demand, Time delta) {
  SunflowResult result;
  const int n = demand.n();

  std::vector<PacketFlow> flows;
  flows.reserve(demand.nnz());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (!approx_zero(demand.at(i, j))) flows.push_back({i, j, demand.at(i, j)});
    }
  }
  std::sort(flows.begin(), flows.end(),
            [](const PacketFlow& a, const PacketFlow& b) { return a.size > b.size; });

  // Every circuit occupies its ports for at least delta plus the smallest
  // flow (the last of the sorted list): the timelines' floor.
  const Time min_len = flows.empty() ? 0.0 : delta + flows.back().size;
  std::vector<PortTimeline> ingress(n);
  std::vector<PortTimeline> egress(n);
  for (PortTimeline& t : ingress) t.reset(min_len);
  for (PortTimeline& t : egress) t.reset(min_len);
  for (const PacketFlow& f : flows) {
    // The circuit occupies both ports for (setup delta + transmission);
    // only the affected ports halt, everything else keeps running.
    const Time occupancy = delta + f.size;
    const Time t = place_common(ingress[f.src], egress[f.dst], occupancy);
    const Time end = t + occupancy;
    result.schedule.push_back({t + delta, end, f.src, f.dst, 0});
    result.cct = std::max(result.cct, end);
    ++result.reconfigurations;
  }
  return result;
}

}  // namespace reco
