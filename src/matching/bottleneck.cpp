// Exact bottleneck (max-min) perfect matching: sort the support's distinct
// values, binary-search the largest one that still admits a perfect
// matching, and run one Hopcroft-Karp at it.
#include "matching/bottleneck.hpp"

#include <algorithm>

#include "matching/hopcroft_karp.hpp"

namespace reco {

std::optional<BottleneckMatching> bottleneck_perfect_matching(const Matrix& m) {
  std::vector<double> values;
  for (int i = 0; i < m.n(); ++i) {
    for (int j = 0; j < m.n(); ++j) {
      const double x = m.at(i, j);
      if (!approx_zero(x)) values.push_back(x);
    }
  }
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  // Dedup by exact value; the tolerance lives only in the edge test
  // (entry >= t - kTimeEps).  Merging approx-equal neighbours would collapse
  // a near-equal chain a~b~c whose ends differ by more than the tolerance
  // and could select a smaller bottleneck.
  values.erase(std::unique(values.begin(), values.end()), values.end());

  // A perfect matching must exist at the smallest value.  Raising the
  // threshold only removes edges, so feasibility is monotone.
  // Invariant: feasible at values[lo], infeasible at values[hi] (or past
  // the end).
  if (!has_perfect_matching_at(m, values.front())) return std::nullopt;
  std::size_t lo = 0;
  std::size_t hi = values.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (has_perfect_matching_at(m, values[mid])) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  const MatchingResult r = threshold_matching(m, values[lo]);
  BottleneckMatching out;
  out.bottleneck = values[lo];
  out.pairs.reserve(r.match_left.size());
  for (int i = 0; i < static_cast<int>(r.match_left.size()); ++i) {
    out.pairs.emplace_back(i, r.match_left[i]);
  }
  return out;
}

}  // namespace reco
