// Pseudo-time axis machinery for multi-coflow schedules (Alg. 2, Lines
// 10-12).  A pseudo-time slice schedule ignores reconfiguration delay; the
// all-stop OCS charges one delta per *start batch* (set of flows starting
// at the same pseudo instant), and every in-flight flow is halted by each
// batch that fires while it transmits.
#pragma once

#include <cstddef>
#include <vector>

#include "core/slice.hpp"
#include "core/types.hpp"

namespace reco {

/// Map a pseudo-time schedule S-hat_o to real time S_o:
///   start' = t1 + delta * |{batches s <= t1}|   (waits for its own batch's
///                                                reconfiguration too)
///   end'   = t2 + delta * |{batches s <  t2}|   (halted by every batch that
///                                                fires before it finishes)
/// Both shifts count the flow's own batch, so port feasibility is preserved
/// (Lemma 2) and per-flow duration is stretched by exactly the number of
/// mid-flight batches times delta (the all-stop halts).  Batches are
/// compared with kTimeEps tolerance; a slice of at most 2 kTimeEps takes
/// the start's count at its end too, so it never ends before it starts.
/// Takes the start
/// order from order_by_start and runs inflate_in_start_order along it.
SliceSchedule inflate_pseudo_time(const SliceSchedule& pseudo, Time delta);

/// The same inflation, given the schedule's start order: `order` lists
/// every slice of `pseudo` once, by ascending start (a wrong size or an
/// out-of-range entry throws std::invalid_argument).  Writes slice f of the
/// result to `real_out[f]` (resized to match) and builds the start batches
/// in `batches`; both buffers keep their capacity, so a caller with
/// long-lived buffers allocates nothing here.  Inflated starts never
/// decrease along `order`, so the result's batch count comes out of the
/// same pass: the return value equals count_reconfigurations(real_out).
int inflate_in_start_order(const SliceSchedule& pseudo, const std::vector<std::size_t>& order,
                           Time delta, std::vector<Time>& batches, SliceSchedule& real_out);

/// Reconfigurations an all-stop OCS needs to run this schedule: one per
/// distinct start batch (Alg. 2's eta over the full horizon).
int count_reconfigurations(const SliceSchedule& schedule);

/// Not-all-stop realization of a pseudo-time schedule (Sec. VI): each
/// circuit pays its own per-port setup delta and nothing halts anybody
/// else.  Slices are realized in pseudo-start order, equal starts by index
/// (order_by_start):
///   real_start = max(pseudo_start, in_free, out_free) + delta
/// so the port constraint holds by construction and priority (pseudo
/// order) is preserved per port.  Start-time alignment buys nothing here —
/// which is exactly why Theorem 3's not-all-stop extension only needs the
/// transform's stretch bound, not its batching.
SliceSchedule realize_not_all_stop(const SliceSchedule& pseudo, Time delta);

}  // namespace reco
