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
#include <span>
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
/// The timeline has a *floor*, set by reset(min_len): the shortest length
/// any query may ask for.  A gap g with g < min_len - kTimeEps fails the
/// fit test of every such query, so insert fills it as if the intervals
/// touched.  Gaps that a floor-length flow fits survive.
///
/// Coalescing is exact for d > kTimeEps: such a flow never fits inside a
/// touching or overlapping chain, so the merged interval answers every
/// query as its members would.  A d <= kTimeEps also fits the zero-length
/// gap at an exact touch, which merging removes; place_common asks such a
/// d only at t = 0, where every interval starts at or after t and the
/// answer is t either way.
class PortTimeline {
 public:
  /// Empty the timeline and set its floor: every later query asks for
  /// d >= min_len.  The default floor 0 fills no gap.
  void reset(Time min_len = 0.0) {
    busy_.clear();
    min_len_ = min_len;
  }

  /// Earliest s >= t such that [s, s+d) is free on this port.  `k` is the
  /// query cursor: on entry an index at or before the first interval ending
  /// after t; on return the index where the scan stopped, the first
  /// interval ending after the answer.  Every interval before it ends at or
  /// before the answer, and the one at it, if any, starts at least
  /// d - kTimeEps after it.  So `k` serves the port's next query at or
  /// after the answer.  `scan_start` receives the first interval ending
  /// after t, where the scan started: the cursor for an insert at or after
  /// t.  An interval ending at or before t cannot move t, so the scan skips
  /// it.  Throws std::logic_error if d is below the floor.
  Time earliest_fit(Time t, Time d, std::size_t& k, std::size_t& scan_start) const {
    if (d < min_len_) throw_below_floor(d, min_len_);
    scan_start = first_ending_after(t, k);
    for (k = scan_start; k < busy_.size(); ++k) {
      if (busy_[k].first - t >= d - kTimeEps) break;  // fits before interval k
      t = busy_[k].second;
    }
    return t;
  }

  /// Insert [start, end]; `k` is at or before the first interval ending
  /// after start.
  void insert(Time start, Time end, std::size_t k = 0) {
    // [first, last) are the stored intervals [start, end] merges with: the
    // ones across a gap that is not live.  Stored gaps are all live, so on
    // the left only the one neighbour ending at or before start can merge.
    k = first_ending_after(start, k);
    std::size_t first = k;
    if (first > 0 && !live_gap(busy_[first - 1].second, start)) --first;
    std::size_t last = k;
    while (last < busy_.size() && !live_gap(end, busy_[last].first)) ++last;
    const auto it = busy_.begin() + static_cast<std::ptrdiff_t>(first);
    if (first == last) {
      busy_.insert(it, {start, end});
      return;
    }
    it->first = std::min(it->first, start);
    it->second = std::max(end, busy_[last - 1].second);
    busy_.erase(std::next(it), busy_.begin() + static_cast<std::ptrdiff_t>(last));
  }

  std::size_t capacity() const { return busy_.capacity(); }
  /// Number of stored (coalesced) intervals.
  std::size_t size() const { return busy_.size(); }
  /// The stored (coalesced) intervals, by ascending start.
  std::span<const std::pair<Time, Time>> intervals() const { return busy_; }

 private:
  /// Whether the gap from a busy end `e` to a busy start `s` can hold a
  /// floor-length flow: positive, and not failing the fit test for d =
  /// min_len (the same expression earliest_fit evaluates).
  bool live_gap(Time e, Time s) const { return s > e && !(s - e < min_len_ - kTimeEps); }

  /// First index at or after k whose interval ends after t, for k at or
  /// before it: gallop forward from k, then binary-search the last stride.
  /// The gallop tests `t < end` as the search does, so the two agree even
  /// on a NaN end.
  std::size_t first_ending_after(Time t, std::size_t k) const {
    std::size_t probe = k;
    for (std::size_t stride = 1; probe < busy_.size() && !(t < busy_[probe].second); stride *= 2) {
      k = probe + 1;
      probe += stride;
    }
    const auto hi = busy_.begin() + static_cast<std::ptrdiff_t>(std::min(probe, busy_.size()));
    const auto it = std::upper_bound(
        busy_.begin() + static_cast<std::ptrdiff_t>(k), hi, t,
        [](Time v, const std::pair<Time, Time>& iv) { return v < iv.second; });
    return static_cast<std::size_t>(it - busy_.begin());
  }

  [[noreturn]] static void throw_below_floor(Time d, Time min_len);

  std::vector<std::pair<Time, Time>> busy_;
  Time min_len_ = 0.0;
};

/// Place a flow of length d at the earliest s >= 0 at which [s, s+d) is
/// free on both `a` and `b`, insert it into both, and return s.  The fixed
/// point alternates between the two timelines.  Each port's next query
/// time is never below its last answer, so each port's next query starts
/// where its last scan stopped.  The accepted s may lie up to kTimeEps
/// before a port's last answer, so each insert starts where that port's
/// last scan started instead.
inline Time place_common(PortTimeline& a, PortTimeline& b, Time d) {
  std::size_t query_a = 0;
  std::size_t query_b = 0;
  std::size_t insert_a = 0;
  std::size_t insert_b = 0;
  Time t_a = a.earliest_fit(0.0, d, query_a, insert_a);
  while (true) {
    const Time t_both = b.earliest_fit(t_a, d, query_b, insert_b);
    const bool b_agrees = t_both <= t_a + kTimeEps;
    // Verifies t_both on `a`; if rejected, it is the next round's first query.
    t_a = a.earliest_fit(t_both, d, query_a, insert_a);
    if (b_agrees && t_a <= t_both + kTimeEps) {
      a.insert(t_both, t_both + d, insert_a);
      b.insert(t_both, t_both + d, insert_b);
      return t_both;
    }
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
