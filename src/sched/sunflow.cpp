#include "sched/sunflow.hpp"

#include <algorithm>
#include <vector>

#include "sched/packet_scheduler.hpp"

namespace reco {

SunflowResult sunflow(const Matrix& demand, Time delta, SunflowOrder order) {
  SunflowResult result;
  const int n = demand.n();

  std::vector<PacketFlow> flows;
  flows.reserve(demand.nnz());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (!approx_zero(demand.at(i, j))) flows.push_back({i, j, demand.at(i, j)});
    }
  }
  std::sort(flows.begin(), flows.end(), [order](const PacketFlow& a, const PacketFlow& b) {
    return order == SunflowOrder::kLongestFirst ? a.size > b.size : a.size < b.size;
  });

  std::vector<PortTimeline> ingress(n);
  std::vector<PortTimeline> egress(n);
  for (const PacketFlow& f : flows) {
    // The circuit occupies both ports for (setup delta + transmission);
    // only the affected ports halt, everything else keeps running.
    const Time occupancy = delta + f.size;
    const Time t = earliest_common_fit(ingress[f.src], egress[f.dst], occupancy);
    const Time end = t + occupancy;
    ingress[f.src].insert(t, end);
    egress[f.dst].insert(t, end);
    result.schedule.push_back({t + delta, end, f.src, f.dst, 0});
    result.cct = std::max(result.cct, end);
    ++result.reconfigurations;
  }
  return result;
}

}  // namespace reco
