// Retained dense (pre-sparse-index) implementations of the decomposition
// stack, frozen at their original O(N^2)-per-round form.  Test oracles,
// not library code: they build as the reco_oracles library under tests/.
//
// Consumers:
//   * the dense-vs-sparse equivalence property test
//     (tests/property/test_sparse_equivalence.cpp) asserts that the
//     SupportIndex-based kernels produce identical CircuitSchedules to
//     these references across sizes, densities, and both BvN policies;
//   * the bottleneck equivalence test
//     (tests/property/test_bottleneck_equivalence.cpp) pins
//     bottleneck_perfect_matching against
//     bottleneck_perfect_matching_reference;
//   * bench_micro_kernels measures the sparse path's speedup against this
//     baseline (the acceptance bar for the sparse index work).
//
// Do not "optimize" these: their value is being a faithful copy of the
// dense algorithms the sparse kernels must reproduce bit-for-bit on the
// support (see DESIGN.md §3, "Complexity & sparsity").
#pragma once

#include <optional>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/types.hpp"

#include "bvn/bvn.hpp"  // BvnPolicy
#include "matching/bottleneck.hpp"

namespace reco::dense_reference {

/// Dense Birkhoff decomposition: full-matrix nnz() rescan per round, Kuhn
/// augmentation probing all N columns per row.
CircuitSchedule bvn_decompose(Matrix m, BvnPolicy policy);

/// Dense matching cover of an arbitrary non-negative matrix.
CircuitSchedule cover_decompose(Matrix m);

/// Dense greedy stuffing (O(N^2) slack sweep + repair pass).
Matrix stuff(const Matrix& demand);
Matrix stuff_granular(const Matrix& demand, Time quantum);

/// Dense Solstice: stuffing + power-of-two slicing with the dense matcher.
CircuitSchedule solstice(const Matrix& demand);

/// Seed bottleneck max-min matching, retained as the reference oracle for
/// bottleneck_perfect_matching (src/matching/bottleneck.*): sorted distinct
/// value ladder + binary search, one cold recursive Hopcroft-Karp per
/// probe.  The ladder uses exact dedup — the one deliberate divergence
/// from the seed, whose pairwise-approx `std::unique` collapsed transitive
/// near-equal chains (see MatchingEngine.EpsilonDedupChainRegression);
/// everything else, including BFS/DFS visit order and hence the returned
/// pairs, is the seed algorithm verbatim.
std::optional<BottleneckMatching> bottleneck_perfect_matching_reference(const Matrix& m);

}  // namespace reco::dense_reference
