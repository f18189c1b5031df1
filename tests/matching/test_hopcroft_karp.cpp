#include "matching/hopcroft_karp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

/// Brute-force maximum matching size by trying all column permutations
/// (only for tiny n) -- the oracle for property tests.
int brute_force_max_matching(int n, const std::vector<std::vector<int>>& adj) {
  std::vector<std::vector<char>> edge(n, std::vector<char>(n, 0));
  for (int i = 0; i < n; ++i) {
    for (int j : adj[i]) edge[i][j] = 1;
  }
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  int best = 0;
  do {
    int size = 0;
    for (int i = 0; i < n; ++i) size += edge[i][perm[i]];
    best = std::max(best, size);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

/// The n x n 0/1 matrix whose support is `adj` (adj[i] = the columns of
/// row i; missing rows are empty), so threshold_matching at 1.0 matches on
/// exactly those edges.
Matrix zero_one(int n, const std::vector<std::vector<int>>& adj) {
  Matrix m(n);
  for (int i = 0; i < static_cast<int>(adj.size()); ++i) {
    for (int j : adj[i]) m.at(i, j) = 1.0;
  }
  return m;
}

TEST(HopcroftKarp, EmptyGraph) {
  const MatchingResult r = threshold_matching(zero_one(3, {{}, {}, {}}), 1.0);
  EXPECT_EQ(r.size, 0);
}

TEST(HopcroftKarp, PerfectOnIdentity) {
  const MatchingResult r = threshold_matching(zero_one(3, {{0}, {1}, {2}}), 1.0);
  EXPECT_EQ(r.size, 3);  // perfect: every row matched
  EXPECT_EQ(r.match_left[1], 1);
  EXPECT_EQ(r.match_right[2], 2);
}

TEST(HopcroftKarp, AugmentingPathNeeded) {
  // Greedy 0->0 would block 1; HK must find the augmenting path.
  const MatchingResult r = threshold_matching(zero_one(2, {{0, 1}, {0}}), 1.0);
  EXPECT_EQ(r.size, 2);
}

TEST(HopcroftKarp, MatchingIsConsistent) {
  const MatchingResult r =
      threshold_matching(zero_one(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}), 1.0);
  EXPECT_EQ(r.size, 4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(r.match_left[i], -1);
    EXPECT_EQ(r.match_right[r.match_left[i]], i);
  }
}

TEST(HopcroftKarp, RectangularGraph) {
  // Two rows against three columns, padded square with an empty row.
  const MatchingResult r = threshold_matching(zero_one(3, {{0, 1, 2}, {2}}), 1.0);
  EXPECT_EQ(r.size, 2);
}

TEST(HopcroftKarpProperty, MatchesBruteForceOnRandomGraphs) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = rng.uniform_int(1, 6);
    std::vector<std::vector<int>> adj(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (rng.uniform() < 0.4) adj[i].push_back(j);
      }
    }
    EXPECT_EQ(threshold_matching(zero_one(n, adj), 1.0).size, brute_force_max_matching(n, adj))
        << "trial " << trial;
  }
}

TEST(ThresholdHelpers, PerfectMatchingAtThreshold) {
  const Matrix m = Matrix::from_rows({{5, 1}, {2, 8}});
  EXPECT_TRUE(has_perfect_matching_at(m, 2.0));   // (0,0) and (1,1)
  EXPECT_TRUE(has_perfect_matching_at(m, 5.0));   // (0,0) and (1,1)
  EXPECT_FALSE(has_perfect_matching_at(m, 6.0));  // only (1,1) survives
}

TEST(ThresholdHelpers, ZeroEntriesNeverEdges) {
  Matrix m(2);
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  EXPECT_TRUE(has_perfect_matching_at(m, 0.5));
  EXPECT_FALSE(has_perfect_matching_at(m, 1.5));
}

TEST(ThresholdHelpersProperty, PerfectMatchingExistsOnDoublyStochasticSupport) {
  // Birkhoff: every doubly stochastic matrix has a perfect matching on its
  // nonzero support.
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const Matrix m = testing::random_doubly_stochastic(rng, 8, 5, 0.5, 2.0);
    EXPECT_TRUE(has_perfect_matching_at(m, m.min_nonzero()));
  }
}

}  // namespace
}  // namespace reco
