// Non-preemptive multi-coflow scheduling in a packet switch: the ALG_p of
// Sec. IV-A.  "Non-preemptive" per the paper: at most one flow transmits on
// each port at a time, and a started flow runs to completion.
//
// Given a coflow priority order sigma, flows are list-scheduled in
// coflow-major order with *backfilling*: each flow takes the earliest slot
// that is simultaneously free on its ingress and egress port, without
// moving anything already scheduled.  Backfilling matters: naive
// "max(port_free)" list scheduling couples every port's clock to the
// fabric-wide maximum through shared flows and leaves the switch mostly
// idle.  Combined with the BSSI ordering this realizes a Delta = 4
// approximation for total weighted CCT in packet switches.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "core/coflow.hpp"
#include "core/slice.hpp"
#include "core/support_index.hpp"

namespace reco {

/// Busy intervals of one port, coalesced: an inserted interval is merged
/// with every stored one it touches or overlaps, so stored intervals have
/// strictly increasing starts and ends and positive gaps between them.
/// (Placed intervals may overlap by less than kTimeEps, because the fit
/// test admits a gap of d - kTimeEps.)  Supports "earliest gap of length d
/// starting at or after t" queries and interval insertion — the core of
/// insertion-based (backfilling) list scheduling.
///
/// Coalescing is exact for d > kTimeEps: such a flow never fits inside a
/// touching or overlapping chain, so the merged interval answers every
/// query as its members would.  A d <= kTimeEps also fits the zero-length
/// gap at an exact touch, which merging removes; earliest_common_fit asks
/// such a d only at t = 0, where every interval starts at or after t and
/// the answer is t either way.
class PortTimeline {
 public:
  /// Earliest s >= t such that [s, s+d) is free on this port.  An interval
  /// ending at or before t cannot move t, so the scan starts at the first
  /// interval ending after it.
  Time earliest_fit(Time t, Time d) const {
    auto it = std::upper_bound(
        busy_.begin(), busy_.end(), t,
        [](Time v, const std::pair<Time, Time>& iv) { return v < iv.second; });
    for (; it != busy_.end(); ++it) {
      if (it->first - t >= d - kTimeEps) break;  // fits before this interval
      t = it->second;
    }
    return t;
  }

  void insert(Time start, Time end) {
    // [first, last) are the stored intervals that touch or overlap
    // [start, end]: ends ascend, so they begin at the first end >= start;
    // starts ascend, so they stop before the first start > end.
    const auto first = std::lower_bound(
        busy_.begin(), busy_.end(), start,
        [](const std::pair<Time, Time>& iv, Time s) { return iv.second < s; });
    auto last = first;
    while (last != busy_.end() && last->first <= end) ++last;
    if (first == last) {
      busy_.insert(first, {start, end});
      return;
    }
    first->first = std::min(first->first, start);
    first->second = std::max(end, std::prev(last)->second);
    busy_.erase(std::next(first), last);
  }

  void clear() { busy_.clear(); }
  std::size_t capacity() const { return busy_.capacity(); }
  /// Number of stored (coalesced) intervals.
  std::size_t size() const { return busy_.size(); }

 private:
  std::vector<std::pair<Time, Time>> busy_;
};

/// Earliest s >= 0 at which [s, s+d) is free on both `a` and `b`: alternate
/// a fixed point between the two timelines (each step only moves the
/// candidate forward, and it converges as soon as both agree).
inline Time earliest_common_fit(const PortTimeline& a, const PortTimeline& b, Time d) {
  Time t = 0.0;
  while (true) {
    const Time t_a = a.earliest_fit(t, d);
    const Time t_both = b.earliest_fit(t_a, d);
    if (t_both <= t_a + kTimeEps && a.earliest_fit(t_both, d) <= t_both + kTimeEps) return t_both;
    t = t_both;
  }
}

/// One flow awaiting placement (the per-coflow extraction buffer's element).
struct PacketFlow {
  int src = 0;
  int dst = 0;
  Time size = 0.0;
};

/// Reusable buffers for list scheduling.  A long-lived scratch makes
/// repeated packet_schedule_into calls allocation-free once the port
/// timelines and the flow buffer have reached their high-water capacity —
/// which is what lets the online replan core run without steady-state
/// allocation.
struct PacketScratch {
  std::vector<PortTimeline> ingress;
  std::vector<PortTimeline> egress;
  std::vector<PacketFlow> flows;

  /// Total heap capacity currently held, in elements.
  std::size_t capacity_footprint() const {
    std::size_t total = ingress.capacity() + egress.capacity() + flows.capacity();
    for (const PortTimeline& t : ingress) total += t.capacity();
    for (const PortTimeline& t : egress) total += t.capacity();
    return total;
  }
};

/// Produce the non-preemptive packet-switch schedule S_p (one slice per
/// flow) following the given coflow order (a permutation of coflow
/// *indices* into `coflows`).
SliceSchedule packet_schedule(const std::vector<Coflow>& coflows, const std::vector<int>& order);

/// In-place twin with caller-owned scratch; bit-identical output.
void packet_schedule_into(const std::vector<Coflow>& coflows, const std::vector<int>& order,
                          PacketScratch& scratch, SliceSchedule& out);

/// Residual overload for the online replan core: each demand is a sparse
/// residual index (support iteration visits the same nonzero flows, in the
/// same (i asc, j asc) order, as a dense scan — so output is bit-identical
/// to the dense overload on equal matrices).  `ids[k]` is the coflow id
/// stamped on residuals[k]'s slices; `order` permutes indices into
/// `residuals`.
void packet_schedule_into(const std::vector<const SupportIndex*>& residuals,
                          const std::vector<CoflowId>& ids, const std::vector<int>& order,
                          PacketScratch& scratch, SliceSchedule& out);

}  // namespace reco
