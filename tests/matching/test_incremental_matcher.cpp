#include "matching/incremental_matcher.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "core/support_index.hpp"
#include "matching/hopcroft_karp.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(IncrementalMatcher, InitialRematchFindsMaximum) {
  const SupportIndex m(Matrix::from_rows({{5, 1}, {2, 8}}));
  IncrementalMatcher matcher(m, 0.5);
  EXPECT_EQ(matcher.rematch(), 2);
  EXPECT_TRUE(matcher.is_perfect());
}

TEST(IncrementalMatcher, ThresholdExcludesSmallEntries) {
  const SupportIndex m(Matrix::from_rows({{5, 1}, {2, 8}}));
  IncrementalMatcher matcher(m, 6.0);
  EXPECT_EQ(matcher.rematch(), 1);  // only the 8 qualifies
  EXPECT_FALSE(matcher.is_perfect());
}

TEST(IncrementalMatcher, LoweringThresholdGrowsMatching) {
  const SupportIndex m(Matrix::from_rows({{5, 1}, {2, 8}}));
  IncrementalMatcher matcher(m, 6.0);
  matcher.rematch();
  matcher.set_threshold(2.0);
  EXPECT_EQ(matcher.rematch(), 2);
}

TEST(IncrementalMatcher, RaisingThresholdDropsInvalidEdges) {
  const SupportIndex m(Matrix::from_rows({{5, 1}, {2, 8}}));
  IncrementalMatcher matcher(m, 0.5);
  matcher.rematch();
  matcher.set_threshold(6.0);
  // Whatever perfect matching was found, at most the (1,1)=8 edge survives.
  EXPECT_LE(matcher.size(), 1);
  EXPECT_EQ(matcher.rematch(), 1);
  EXPECT_EQ(matcher.matched_col(1), 1);
}

TEST(IncrementalMatcher, EntryChangeUnmatchesZeroedEdge) {
  SupportIndex m(Matrix::from_rows({{5, 0}, {0, 8}}));
  IncrementalMatcher matcher(m, 0.5);
  matcher.rematch();
  ASSERT_TRUE(matcher.is_perfect());
  m.set(0, 0, 0.0);
  matcher.on_entry_changed(0, 0);
  EXPECT_EQ(matcher.size(), 1);
  // No alternative for row 0 now.
  EXPECT_EQ(matcher.rematch(), 1);
}

TEST(IncrementalMatcher, RepairViaAugmentingPath) {
  SupportIndex m(Matrix::from_rows({{5, 3}, {4, 0}}));
  IncrementalMatcher matcher(m, 0.5);
  ASSERT_EQ(matcher.rematch(), 2);  // must be (0,1),(1,0)
  // Kill (1,0): row 1 has no other edge -> matching drops to 1 permanently.
  m.set(1, 0, 0.0);
  matcher.on_entry_changed(1, 0);
  EXPECT_EQ(matcher.rematch(), 1);
  // Row 0 should still be matched to something present.
  EXPECT_NE(matcher.matched_col(0), -1);
}

/// n = 65 (two bitset words per row) with the given entries set and every
/// other entry zero.
SupportIndex two_word_matrix(const std::vector<std::tuple<int, int, double>>& entries) {
  Matrix m(65);
  for (const auto& [i, j, v] : entries) m.at(i, j) = v;
  return SupportIndex(std::move(m));
}

std::vector<std::tuple<int, int, double>> diagonal_1_to_63() {
  std::vector<std::tuple<int, int, double>> entries;
  for (int i = 1; i < 64; ++i) entries.emplace_back(i, i, 3.0);
  return entries;
}

TEST(IncrementalMatcher, ReportedUnmatchedEdgeBelowThresholdIsNeverUsed) {
  // Row 0 reaches columns 0 (word 0) and 64 (word 1); row 64 reaches
  // 0 and 64.  Kuhn matches 0->64 and 64->0, leaving (0,0) unmatched.
  auto entries = diagonal_1_to_63();
  entries.insert(entries.end(), {{0, 0, 1.0}, {0, 64, 1.0}, {64, 0, 1.0}, {64, 64, 1.0}});
  SupportIndex m = two_word_matrix(entries);
  IncrementalMatcher matcher(m, 0.5);
  ASSERT_EQ(matcher.rematch(), 65);
  ASSERT_EQ(matcher.matched_col(0), 64);
  ASSERT_EQ(matcher.matched_col(64), 0);
  // Lower the unmatched (0,0) below the threshold but keep it nonzero.
  m.set(0, 0, 0.25);
  matcher.on_entry_changed(0, 0);
  EXPECT_EQ(matcher.size(), 65);
  // Break (0,64): a stale (0,0) bit would repair via 0->0, 64->64.
  m.set(0, 64, 0.0);
  matcher.on_entry_changed(0, 64);
  EXPECT_EQ(matcher.rematch(), 64);
  EXPECT_EQ(matcher.matched_col(0), -1);
  EXPECT_EQ(matcher.matched_col(64), 0);
}

TEST(IncrementalMatcher, ThresholdRaisedThenLoweredRebuildsBothWords) {
  // Row 0: 1.0 at column 0 (word 0), 3.0 at column 64 (word 1).
  // Row 64: 1.0 at column 64 only.
  auto entries = diagonal_1_to_63();
  entries.insert(entries.end(), {{0, 0, 1.0}, {0, 64, 3.0}, {64, 64, 1.0}});
  const SupportIndex m = two_word_matrix(entries);
  IncrementalMatcher matcher(m, 0.5);
  ASSERT_EQ(matcher.rematch(), 65);
  ASSERT_EQ(matcher.matched_col(0), 0);
  // At 2.0 only row 0's word-1 edge survives; row 64 has none.
  matcher.set_threshold(2.0);
  EXPECT_EQ(matcher.size(), 63);
  EXPECT_EQ(matcher.rematch(), 64);
  EXPECT_EQ(matcher.matched_col(0), 64);
  EXPECT_EQ(matcher.matched_col(64), -1);
  // Back at 0.5 the word-0 edge of row 0 returns: 64 takes column 64 and
  // row 0 moves back to column 0 along the augmenting path.
  matcher.set_threshold(0.5);
  EXPECT_EQ(matcher.size(), 64);
  EXPECT_EQ(matcher.rematch(), 65);
  EXPECT_EQ(matcher.matched_col(0), 0);
  EXPECT_EQ(matcher.matched_col(64), 64);
}

TEST(IncrementalMatcher, PairsSnapshot) {
  const SupportIndex m(Matrix::from_rows({{1, 0}, {0, 1}}));
  IncrementalMatcher matcher(m, 0.5);
  matcher.rematch();
  ASSERT_EQ(matcher.size(), 2);
  EXPECT_EQ(matcher.matched_col(0), 0);
  EXPECT_EQ(matcher.matched_col(1), 1);
}

TEST(IncrementalMatcherProperty, AgreesWithHopcroftKarpUnderRandomDeletions) {
  // {n, density, trials, steps}.  n = 8 fits one bitset word; the other
  // sizes sit at (63, 64) and across (65, 129) the 64-column word boundary,
  // with 4n deletions per trial so several matched edges break and need
  // repairs that scan more than one word.
  struct Case {
    int n;
    double density;
    int trials;
    int steps;
  };
  Rng rng(23);
  for (const Case c : {Case{8, 0.6, 30, 12}, Case{63, 0.15, 4, 252}, Case{64, 0.15, 4, 256},
                       Case{65, 0.15, 4, 260}, Case{129, 0.1, 3, 516}}) {
    for (int trial = 0; trial < c.trials; ++trial) {
      SupportIndex m(testing::random_demand(rng, c.n, c.density, 1.0, 10.0));
      IncrementalMatcher matcher(m, 0.5);
      matcher.rematch();
      for (int step = 0; step < c.steps; ++step) {
        // Delete a random entry (nonzero or not).
        const int i = rng.uniform_int(c.n);
        const int j = rng.uniform_int(c.n);
        m.set(i, j, 0.0);
        matcher.on_entry_changed(i, j);
        matcher.rematch();
        EXPECT_EQ(matcher.size(), threshold_matching(m, 0.5).size)
            << "n " << c.n << " trial " << trial << " step " << step;
      }
      for (int i = 0; i < c.n; ++i) {
        const int j = matcher.matched_col(i);
        if (j == -1) continue;
        EXPECT_GE(m.at(i, j), 0.5) << "n " << c.n << " trial " << trial << " pair " << i << "," << j;
      }
    }
  }
}

TEST(IncrementalMatcherProperty, ThresholdWalksAgreeWithHopcroftKarp) {
  // Random threshold walks, lowered (the new edges are ORed into the
  // bitset) and raised (the bitset is rebuilt), between reported value
  // drops: after every step the matching is maximum on exactly the edges
  // at the current threshold.  Sizes sit on and across the 64-column word
  // boundary.
  Rng rng(29);
  for (const int n : {8, 63, 65, 129}) {
    for (int trial = 0; trial < 3; ++trial) {
      SupportIndex m(testing::random_demand(rng, n, 0.2, 0.5, 10.0));
      IncrementalMatcher matcher(m, 8.0);
      matcher.rematch();
      for (int step = 0; step < 4 * n; ++step) {
        if (step % 3 == 0) {
          matcher.set_threshold(rng.uniform(0.5, 10.0));
        } else {
          const int i = rng.uniform_int(n);
          const int j = rng.uniform_int(n);
          m.set(i, j, m.at(i, j) / 2.0);
          matcher.on_entry_changed(i, j);
        }
        matcher.rematch();
        EXPECT_EQ(matcher.size(), threshold_matching(m, matcher.threshold()).size)
            << "n " << n << " trial " << trial << " step " << step;
        for (int i = 0; i < n; ++i) {
          const int j = matcher.matched_col(i);
          if (j == -1) continue;
          EXPECT_GE(m.at(i, j), matcher.threshold() - kTimeEps)
              << "n " << n << " trial " << trial << " step " << step;
        }
      }
    }
  }
}

TEST(IncrementalMatcherProperty, SupportIterationMatchesDenseMatching) {
  // The sparse matcher probes only support neighbours; it must still find
  // a maximum matching of the same size the dense adjacency build does.
  Rng rng(97);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix dense = testing::random_demand(rng, 10, 0.3, 1.0, 10.0);
    const SupportIndex idx(dense);
    IncrementalMatcher sparse(idx, 0.5);
    sparse.rematch();
    EXPECT_EQ(sparse.size(), threshold_matching(dense, 0.5).size) << "trial " << trial;
  }
}

}  // namespace
}  // namespace reco
