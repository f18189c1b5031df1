// Exact bottleneck (max-min) perfect matching: among all perfect matchings
// on the nonzero support of a doubly stochastic matrix, find one whose
// minimum matched entry is maximum.  This is the "max-min matching" used by
// Reco-Sin (Alg. 1, Line 6) to extract the permutation with the largest
// possible coefficient.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "core/matrix.hpp"

namespace reco {

struct BottleneckMatching {
  /// Matched pairs (row, col); a perfect matching on the nonzero support.
  std::vector<std::pair<int, int>> pairs;
  /// The maximized minimum entry along the matching.
  double bottleneck = 0.0;
};

/// Exact max-min perfect matching via binary search over the distinct
/// nonzero values of `m` with a Hopcroft-Karp feasibility probe per step;
/// the pairs come from one more Hopcroft-Karp at the winning value.
/// Returns nullopt when no perfect matching exists on the nonzero support
/// (never happens for doubly stochastic matrices, by Birkhoff's theorem).
std::optional<BottleneckMatching> bottleneck_perfect_matching(const Matrix& m);

}  // namespace reco
