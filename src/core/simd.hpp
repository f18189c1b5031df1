// Runtime-dispatched SIMD kernels for the decomposition hot loops.
//
// Every kernel here is a drop-in replacement for a short scalar loop that
// profiling showed on the peel/matching critical path: the row_values()
// mirror re-gather, max-entry scans, quickselect value-pool partitioning,
// regularization rounding, and stuffing slack scans.  The contract that
// makes them safe to substitute freely:
//
//   *Bit-identity.*  Each kernel produces output bit-identical to its
//   scalar reference loop at every dispatch level.  That restricts what
//   may be vectorized: IEEE additions cannot be reassociated, so ordered
//   sums (row_sum_exact and friends) deliberately have NO kernel here —
//   only gathers, max/min reductions (associative and exact), independent
//   element-wise arithmetic (div/ceil/mul/clamp, identical per lane), and
//   order-preserving compactions qualify.  The scalar/SSE2/AVX2 tiers of
//   every kernel are pinned against each other by
//   tests/property/test_simd_kernels.cpp.
//
//   *Preconditions.*  Inputs are finite, non-negative demand quantities
//   (no NaN, no -0.0) — the invariant every SupportIndex value already
//   satisfies (exact 0.0 or >= kTimeEps).  Max/min lane merges are exact
//   under this precondition.
//
// Dispatch is resolved once per process from CPUID plus the RECO_SIMD
// environment variable (off|scalar|sse2|avx2|auto; unsupported requests
// are clamped to what the CPU can run, so forcing avx2 on an SSE2-only
// machine degrades instead of faulting).  The chosen tier is observable
// as the `core.simd.dispatch.<level>` counter once telemetry is enabled.
// Call sites go through the `kernels()` table: one indirect call per
// O(degree) loop, noise next to the loop body it replaces.
#pragma once

#include <cstdint>
#include <vector>

namespace reco::simd {

/// Instruction tier of a kernel table, ordered by capability.
enum class Level : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Tier actually dispatched to (CPUID x RECO_SIMD, resolved once).
Level active_level();

/// "scalar" | "sse2" | "avx2".
const char* level_name(Level level);

/// Tiers this build + CPU can execute, ascending (always starts kScalar).
std::vector<Level> supported_levels();

/// One resolved kernel table.  All pointers are non-null at every level
/// (a tier without a profitable vector form reuses the scalar kernel, so
/// callers never branch).
struct Kernels {
  /// dst[k] = src[idx[k]] — the row_values() dense-row re-gather.
  void (*gather)(const double* src, const int* idx, int count, double* dst);
  /// max(init, v[0..count)) — exact, order-free reduction.
  double (*max_value)(const double* v, int count, double init);
  /// max(init, src[idx[0..count)]) — max over a dirty row without a
  /// materialized mirror.
  double (*max_gather)(const double* src, const int* idx, int count, double init);
  /// min(init, v[0..count)) — the quickselect pool minimum.
  double (*min_value)(const double* v, int count, double init);
  /// max(init, {x in v[0..count) : x <= cut}) — the "largest discarded
  /// value" scan of the quickselect hint filter.
  double (*max_value_leq)(const double* v, int count, double cut, double init);
  /// First index of the maximum (ties -> lowest index); -1 if count <= 0.
  int (*argmax)(const double* v, int count);
  /// out[k] = max(1.0, ceil(v[k]/quantum - kTimeEps)) * quantum — the
  /// regularization rounding map, element-wise.
  void (*round_up_quantum)(const double* v, int count, double quantum, double* out);
  /// out[k] = clamp_zero(minuend - v[k]) — the stuffing slack scan.
  void (*sub_clamp)(double minuend, const double* v, int count, double* out);
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
