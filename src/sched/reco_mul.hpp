// Reco-Mul (Algorithm 2): transform any non-preemptive packet-switch
// multi-coflow schedule S_p into a feasible all-stop OCS schedule S_o.
//
//   1. Stretch every start time by (floor(sqrt(c))+1)/floor(sqrt(c)) and
//      snap it *down* to a multiple of sqrt(c)*delta on the pseudo-time
//      axis (reconfiguration delay shrunk to zero).  With every demand
//      >= c*delta, stretching opens enough room that snapping never makes
//      conflicting flows overlap (Lemma 2).
//   2. Re-inflate the axis: each distinct start batch costs one delta, and
//      every in-flight flow is halted by each batch firing under it.
//
// The alignment means many flows share each reconfiguration, giving the
// Delta*(1 + 1/floor(sqrt(c)))^2 bound of Theorem 3.
#pragma once

#include <cstddef>
#include <vector>

#include "core/slice.hpp"
#include "core/types.hpp"

namespace reco {

struct RecoMulSchedule {
  SliceSchedule pseudo;  ///< S-hat_o: regularized starts, pseudo-time axis
  SliceSchedule real;    ///< S_o: real time, reconfiguration delays injected
  /// Every slice index once, by ascending start, equal starts by ascending
  /// index (order_by_start).  The order ascends on both axes: inflation
  /// never reorders starts.  A prefix of it is therefore every slice that
  /// starts by a given real time.
  std::vector<std::size_t> order;
  /// Start batches of `real`: count_reconfigurations(real).
  int reconfigurations = 0;
};

/// Reusable buffers for the transform's start order, legalization and
/// inflation passes.  Port "free" times are flat vectors indexed by PortId
/// (a value-initialized entry is 0.0, exactly what the previous std::map
/// lookup defaulted to), so a long-lived scratch makes repeated transforms
/// allocation-free once every buffer has hit its high-water capacity.
struct RecoMulScratch {
  std::vector<Time> free_in;
  std::vector<Time> free_out;
  std::vector<Time> batches;  ///< start batches for pseudo-time inflation
  std::vector<StartKey> keys;       ///< order_by_start's work buffers
  std::vector<StartKey> keys_temp;

  /// Total heap capacity currently held, in elements — the online core's
  /// alloc-event accounting samples this to prove steady state is flat.
  std::size_t capacity_footprint() const {
    return free_in.capacity() + free_out.capacity() + batches.capacity() + keys.capacity() +
           keys_temp.capacity();
  }
};

/// Apply Algorithm 2 to a packet-switch schedule.  Requires a finite
/// c >= 1 (the optical transmission threshold assumption of Sec. II) and a
/// finite delta > 0; throws std::invalid_argument otherwise.
///
/// A legalization pass (a provable no-op while d >= c*delta holds, Lemma 2)
/// pushes any snap-induced port conflicts later, so the returned schedules
/// are feasible even when callers sweep delta over a fixed trace and the
/// threshold assumption frays (the Fig. 9(a) regime).
///
/// The slices are sorted once, by packet start with ties by index
/// (order_by_start), for legalization; start batching, inflation and the
/// reconfiguration count all walk that order.  A second sort, by legalized
/// start, runs only when legalization pushes a slice past a later one
/// (docs/ALGORITHMS.md, "One start order per plan").
RecoMulSchedule reco_mul_transform(const SliceSchedule& packet, Time delta, double c);

/// In-place twin: same transform, writing into `out` (every field
/// overwritten) and reusing `scratch` and `out`'s capacity.
void reco_mul_transform_into(const SliceSchedule& packet, Time delta, double c,
                             RecoMulScratch& scratch, RecoMulSchedule& out);

}  // namespace reco
