// Runtime-dispatched SIMD kernels for the bottleneck descent's value pool.
//
// bottleneck_solve (matching/matching_engine.cpp) searches the pool of
// support values by quickselect: a minimum scan, a "largest value at or
// below the cut" scan, and two order-preserving compactions per probe.
// Those four scans are the kernels here.  The contract that makes them
// safe to substitute freely:
//
//   *Bit-identity.*  Each kernel produces output bit-identical to its
//   scalar reference loop at every dispatch level.  Min/max reductions are
//   exact and order-free, and the compactions keep survivors in input
//   order.  The scalar and AVX2 tiers of every kernel are pinned against
//   each other by tests/property/test_simd_kernels.cpp.
//
//   *Preconditions.*  Inputs are finite, non-negative demand quantities
//   (no NaN, no -0.0) — the invariant every SupportIndex value already
//   satisfies (exact 0.0 or >= kTimeEps).  Max/min lane merges are exact
//   under this precondition.
//
// The tier is resolved once per process from CPUID: AVX2 where the CPU
// reports it, scalar otherwise.  It is observable as the
// `core.simd.dispatch.<level>` counter once telemetry is enabled.
#pragma once

#include <cstdint>
#include <vector>

namespace reco::simd {

/// Instruction tier of a kernel table, ordered by capability.
enum class Level : int { kScalar = 0, kAvx2 = 1 };

/// Tier actually dispatched to (CPUID, resolved once).
Level active_level();

/// "scalar" | "avx2".
const char* level_name(Level level);

/// Tiers this build + CPU can execute, ascending (always starts kScalar).
std::vector<Level> supported_levels();

/// One resolved kernel table.  All pointers are non-null at every level.
struct Kernels {
  /// min(init, v[0..count)) — the quickselect pool minimum.
  double (*min_value)(const double* v, int count, double init);
  /// max(init, {x in v[0..count) : x <= cut}) — the "largest discarded
  /// value" scan of the quickselect hint filter.
  double (*max_value_leq)(const double* v, int count, double cut, double init);
  /// Stable in-place compaction keeping v[k] > pivot; returns the kept
  /// count.  Elements beyond the returned count are unspecified.
  int (*partition_greater)(double* v, int count, double pivot);
  /// Stable in-place compaction keeping v[k] < upper && v[k] <= certify;
  /// adds the number of dropped elements with certify < v[k] < upper to
  /// *certified.  The feasible-value discard of the bottleneck descent.
  int (*partition_keep_below)(double* v, int count, double upper, double certify,
                              std::int64_t* certified);
};

/// Table for the active level (resolved once; hot-path entry point).
const Kernels& kernels();

/// Table for a specific tier — the bit-equivalence tests iterate
/// supported_levels() and pin every tier against kScalar.
const Kernels& kernels_for(Level level);

}  // namespace reco::simd
