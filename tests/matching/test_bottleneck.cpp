#include "matching/bottleneck.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "oracles/dense_reference.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

/// Oracle: max over all permutations of (min entry along the permutation,
/// permutations through a zero entry excluded).
double brute_force_bottleneck(const Matrix& m) {
  const int n = m.n();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = 0.0;
  do {
    double mn = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) mn = std::min(mn, m.at(i, perm[i]));
    if (!approx_zero(mn)) best = std::max(best, mn);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Bottleneck, SimpleDiagonalWins) {
  const Matrix m = Matrix::from_rows({{5, 1}, {1, 5}});
  const auto r = bottleneck_perfect_matching(m);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->bottleneck, 5.0);
  EXPECT_EQ(r->pairs[0].second, 0);
  EXPECT_EQ(r->pairs[1].second, 1);
}

TEST(Bottleneck, ForcedThroughSmallEntry) {
  // Any perfect matching must use an entry of value 1.
  const Matrix m = Matrix::from_rows({{1, 9}, {0, 1}});
  const auto r = bottleneck_perfect_matching(m);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->bottleneck, 1.0);
}

TEST(Bottleneck, NoPerfectMatchingReturnsNullopt) {
  Matrix m(2);
  m.at(0, 0) = 1.0;
  m.at(1, 0) = 1.0;  // both rows need column 0
  EXPECT_FALSE(bottleneck_perfect_matching(m).has_value());
}

TEST(Bottleneck, AllZeroMatrixReturnsNullopt) {
  EXPECT_FALSE(bottleneck_perfect_matching(Matrix(3)).has_value());
}

TEST(Bottleneck, MatchingIsPerfectAndOnSupport) {
  Rng rng(3);
  const Matrix m = testing::random_doubly_stochastic(rng, 6, 4, 1.0, 5.0);
  const auto r = bottleneck_perfect_matching(m);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->pairs.size(), 6u);
  std::vector<char> col_used(6, 0);
  for (const auto& [i, j] : r->pairs) {
    EXPECT_GE(m.at(i, j), r->bottleneck - kTimeEps);
    EXPECT_FALSE(col_used[j]);
    col_used[j] = 1;
  }
}

TEST(BottleneckProperty, MatchesBruteForce) {
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = rng.uniform_int(2, 5);
    Matrix m = testing::random_demand(rng, n, 0.8, 1.0, 20.0);
    const double oracle = brute_force_bottleneck(m);
    const auto r = bottleneck_perfect_matching(m);
    if (oracle == 0.0) {
      EXPECT_FALSE(r.has_value()) << "trial " << trial;
    } else {
      ASSERT_TRUE(r.has_value()) << "trial " << trial;
      EXPECT_NEAR(r->bottleneck, oracle, 1e-9) << "trial " << trial;
    }
  }
}

// Regression cases first written for the amortized engine this search
// replaced; the suite keeps its name.

TEST(MatchingEngine, EpsilonDedupChainRegression) {
  // Values 1.0, 1.0 + 0.8e-9, 1.0 + 1.6e-9 form a transitive near-equal
  // chain: consecutive gaps are below kTimeEps (1e-9) but the endpoints
  // differ by more.  The seed's pairwise-approx std::unique collapsed the
  // middle value into 1.0, leaving the ladder {1.0, 1.0 + 1.6e-9}; the
  // top is infeasible (row 0 maxes out at 1.0 < t - eps), so the seed
  // reported bottleneck 1.0.  With exact dedup the ladder keeps
  // 1.0 + 0.8e-9, which IS feasible: every entry is >= t - eps.
  const double mid = 1.0 + 0.8e-9;
  const double top = 1.0 + 1.6e-9;
  Matrix m(3);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  m.at(1, 1) = mid;
  m.at(2, 2) = top;

  const auto dense = bottleneck_perfect_matching(m);
  ASSERT_TRUE(dense.has_value());
  EXPECT_DOUBLE_EQ(dense->bottleneck, mid);

  // The retained reference oracle carries the same fix.
  const auto ref = dense_reference::bottleneck_perfect_matching_reference(m);
  ASSERT_TRUE(ref.has_value());
  EXPECT_DOUBLE_EQ(ref->bottleneck, mid);
  EXPECT_EQ(dense->pairs, ref->pairs);
}

TEST(MatchingEngine, PathShapedStressN512DeepAugmentingPath) {
  // Path-shaped instance whose final augmentation is one alternating path
  // through all 512 rows: rows 0..n-2 carry edges (i, i) = 1 and
  // (i, i+1) = 2; row n-1 carries only (n-1, 0) = 1.  Phase one matches
  // every row i to column i, then row n-1 forces the full-length flip —
  // 512 frames on Hopcroft-Karp's explicit DFS stack, where a recursive
  // DFS would nest 512 calls deep.
  const int n = 512;
  Matrix m(n);
  for (int i = 0; i < n - 1; ++i) {
    m.at(i, i) = 1.0;
    m.at(i, i + 1) = 2.0;
  }
  m.at(n - 1, 0) = 1.0;

  // The unique perfect matching at the bottleneck: row n-1 must take
  // column 0, cascading every other row onto its (i, i+1) edge — but the
  // bottleneck is capped by row n-1's only value.
  const auto dense = bottleneck_perfect_matching(m);
  ASSERT_TRUE(dense.has_value());
  EXPECT_DOUBLE_EQ(dense->bottleneck, 1.0);
  ASSERT_EQ(dense->pairs.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(dense->pairs[n - 1].second, 0);
  for (int i = 0; i < n - 1; ++i) EXPECT_EQ(dense->pairs[i].second, i + 1);
}

}  // namespace
}  // namespace reco
