// Hopcroft-Karp maximum bipartite matching on a matrix's threshold support.
//
// Circuit establishments in an OCS are matchings between ingress and egress
// ports (Sec. II-A); every decomposition algorithm in this repo reduces to
// repeated bipartite matching over the support {(i,j) : d_ij >= threshold}.
#pragma once

#include <vector>

#include "core/matrix.hpp"
#include "core/support_index.hpp"

namespace reco {

/// Result of a maximum-matching computation on an n x n bipartite graph.
struct MatchingResult {
  /// match_left[i] = matched right vertex of i, or -1.
  std::vector<int> match_left;
  /// match_right[j] = matched left vertex of j, or -1.
  std::vector<int> match_right;
  int size = 0;
};

/// Maximum matching on the edges {(i,j) : m(i,j) >= threshold - kTimeEps}.
/// O(E * sqrt(V)).  The SupportIndex overload builds the same edges from
/// the support lists in O(nnz) instead of O(N^2); both probe each row's
/// columns ascending, so they find the same matching.
MatchingResult threshold_matching(const Matrix& m, double threshold);
MatchingResult threshold_matching(const SupportIndex& idx, double threshold);

/// True iff a perfect matching exists using only entries >= threshold.
bool has_perfect_matching_at(const Matrix& m, double threshold);

}  // namespace reco
