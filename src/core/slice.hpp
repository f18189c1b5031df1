// Flow slices: the (t1, t2, i, j, k) tuples that Algorithm 2 manipulates.
// A slice schedule is the representation shared by the packet-switch
// scheduler (S_p), the pseudo-time regularized schedule (S-hat_o) and the
// final OCS schedule (S_o).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/coflow.hpp"
#include "core/matrix.hpp"
#include "core/types.hpp"

namespace reco {

/// One non-preemptive transmission of (part of) a flow: coflow k sends on
/// circuit (src -> dst) during [start, end).
struct FlowSlice {
  Time start = 0.0;
  Time end = 0.0;
  PortId src = 0;
  PortId dst = 0;
  CoflowId coflow = 0;

  Time duration() const { return end - start; }
  bool operator==(const FlowSlice&) const = default;
};

using SliceSchedule = std::vector<FlowSlice>;

/// True iff no two slices that share an ingress or egress port overlap in
/// time — the port constraint of Sec. II-A (Lemma 2's feasibility notion).
bool is_port_feasible(const SliceSchedule& schedule);

/// True iff the schedule transmits exactly the demand of every coflow:
/// for each (i, j, k), the summed slice durations equal d^k_ij.
bool satisfies_demands(const SliceSchedule& schedule, const std::vector<Coflow>& coflows);

/// Completion time f_k = max end over the slices of each coflow (index ==
/// coflow id; coflows with no slices complete at 0).
std::vector<Time> completion_times(const SliceSchedule& schedule, int num_coflows);

/// Sum over k of weight_k * completion_k (arrival assumed 0, as in Sec. II).
Time total_weighted_cct(const std::vector<Time>& cct, const std::vector<Coflow>& coflows);

/// Distinct slice start times, sorted ascending.  In the all-stop OCS every
/// distinct start batch costs exactly one reconfiguration (Alg. 2's eta).
/// A start within kTimeEps of the last kept batch joins that batch (a chain
/// dedup), so starts t, t + 0.9 eps, t + 1.5 eps make two batches.
std::vector<Time> start_batches(const SliceSchedule& schedule);

/// Makespan: latest end time over all slices (0 for an empty schedule).
Time makespan(const SliceSchedule& schedule);

/// One slice index and its start as an order-preserving unsigned key: the
/// element order_by_start sorts.
struct StartKey {
  std::uint64_t key;
  std::size_t index;
};

/// Write every index of `slices` once into `order`, by ascending start,
/// equal starts by ascending index, so the order is a function of the
/// schedule alone (-0.0 and +0.0 are equal starts).  An LSD radix sort over
/// 8-bit digits, skipping every digit all keys share.  `keys` and `temp` are
/// work buffers, both resized to `slices.size()` like `order`; all three
/// keep their capacity, so a caller with long-lived buffers allocates
/// nothing here once they have grown.
void order_by_start(const SliceSchedule& slices, std::vector<std::size_t>& order,
                    std::vector<StartKey>& keys, std::vector<StartKey>& temp);

}  // namespace reco
