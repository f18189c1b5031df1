// Unit tests for the amortized matching engine: the epsilon-dedup chain
// regression, the deep path-shaped stress the old recursive DFS could not
// guarantee, and the zero-allocation steady state of warm peel loops.
#include "matching/matching_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/matrix.hpp"
#include "core/support_index.hpp"
#include "matching/bottleneck.hpp"
#include "obs/obs.hpp"
#include "oracles/dense_reference.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

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

  const auto engine = bottleneck_perfect_matching(m);
  ASSERT_TRUE(engine.has_value());
  EXPECT_DOUBLE_EQ(engine->bottleneck, mid);

  // The retained reference oracle carries the same fix.
  const auto ref = dense_reference::bottleneck_perfect_matching_reference(m);
  ASSERT_TRUE(ref.has_value());
  EXPECT_DOUBLE_EQ(ref->bottleneck, mid);
  EXPECT_EQ(engine->pairs, ref->pairs);

  // Sparse overloads agree.
  const SupportIndex idx(m);
  const auto sparse = bottleneck_perfect_matching(idx);
  ASSERT_TRUE(sparse.has_value());
  EXPECT_DOUBLE_EQ(sparse->bottleneck, mid);
  EXPECT_EQ(sparse->pairs, engine->pairs);
}

TEST(MatchingEngine, PathShapedStressN512DeepAugmentingPath) {
  // Path-shaped instance whose final augmentation is one alternating path
  // through all 512 rows: rows 0..n-2 carry edges (i, i) = 1 and
  // (i, i+1) = 2; row n-1 carries only (n-1, 0) = 1.  Phase one matches
  // every row i to column i, then row n-1 forces the full-length flip —
  // the DFS the seed ran as 512 nested recursive calls now runs on the
  // scratch's explicit frame stack.
  const int n = 512;
  Matrix m(n);
  for (int i = 0; i < n - 1; ++i) {
    m.at(i, i) = 1.0;
    m.at(i, i + 1) = 2.0;
  }
  m.at(n - 1, 0) = 1.0;

  MatchingScratch s;
  ASSERT_TRUE(bottleneck_solve(m, s));
  // The unique perfect matching at the bottleneck: row n-1 must take
  // column 0, cascading every other row onto its (i, i+1) edge — but the
  // bottleneck is capped by row n-1's only value.
  EXPECT_DOUBLE_EQ(s.bottleneck, 1.0);
  EXPECT_EQ(s.matching_size, n);
  EXPECT_EQ(s.final_left[n - 1], 0);
  for (int i = 0; i < n - 1; ++i) EXPECT_EQ(s.final_left[i], i + 1);

  // Sparse overload walks the same deep path.
  MatchingScratch s2;
  ASSERT_TRUE(bottleneck_solve(SupportIndex(m), s2));
  EXPECT_DOUBLE_EQ(s2.bottleneck, 1.0);
  EXPECT_EQ(s2.final_left, s.final_left);
}

TEST(MatchingEngine, HallPruneSkipsProvablyInfeasibleLadderValues) {
  // Row n-1's single small edge is a Hall certificate: any threshold
  // above it is infeasible, so one failed probe should prune the entire
  // upper ladder instead of bisecting through it.
  const int n = 64;
  Matrix m(n);
  for (int i = 0; i < n - 1; ++i) {
    m.at(i, i) = 1.0;
    for (int j = 0; j < n; ++j) {
      if (j != i) m.at(i, j) = 2.0 + static_cast<double>(i * n + j) * 1e-3;
    }
  }
  m.at(n - 1, 0) = 1.0;
  MatchingScratch s;
  ASSERT_TRUE(bottleneck_solve(m, s));
  EXPECT_DOUBLE_EQ(s.bottleneck, 1.0);
  EXPECT_GE(s.stats.hall_prunes, 1u);
  EXPECT_GE(s.stats.probes_pruned, 1u);
  // The ladder has ~n^2 distinct values; without the prune the binary
  // search alone would need 1 + ceil(log2(n^2)) = 13 probes.
  EXPECT_LE(s.stats.probes, 8u);
}

TEST(MatchingEngine, SteadyStatePeelRoundsAllocateNothing) {
  // Drive a warm peel loop by hand: after the first rounds establish the
  // buffer high-water marks, every further solve must reuse the scratch
  // without touching the heap, and the obs counters must say so.
  obs::reset();
  obs::set_enabled(true);

  Rng rng(91);
  SupportIndex m(testing::random_doubly_stochastic(rng, 48, 14, 0.5, 4.0));
  MatchingScratch s;
  std::uint64_t allocs_after_warmup = 0;
  int rounds = 0;
  while (m.nnz() > 0 && bottleneck_solve(m, s)) {
    for (int i = 0; i < m.n(); ++i) {
      const int j = s.final_left[i];
      m.set(i, j, clamp_zero(m.at(i, j) - s.bottleneck));
    }
    ++rounds;
    if (rounds == 2) allocs_after_warmup = s.stats.alloc_events;
  }
  obs::set_enabled(false);

  ASSERT_GE(rounds, 5);
  // Zero per-call heap allocations once warm: the alloc count frozen
  // after round two never moves again.
  EXPECT_EQ(s.stats.alloc_events, allocs_after_warmup);
  EXPECT_GE(s.stats.scratch_reuses, s.stats.solves - allocs_after_warmup);
  EXPECT_EQ(s.stats.scratch_reuses + s.stats.alloc_events, s.stats.solves);
  // Rounds after the first re-enter the ladder with the previous round's
  // matching.  Matched entries that hit exact zero drop out — on
  // permutation-sum inputs an occasional round loses its whole matching
  // at once — but most rounds must warm-start.
  EXPECT_GE(s.stats.warm_start_hits, static_cast<std::uint64_t>(rounds / 2));
  EXPECT_GT(s.stats.warm_edges_kept, 0u);

  // The same accounting is visible through the obs metric catalogue.
  EXPECT_DOUBLE_EQ(obs::metrics().counter("matching.engine.scratch_reuses").value(),
                   static_cast<double>(s.stats.scratch_reuses));
  EXPECT_DOUBLE_EQ(obs::metrics().counter("matching.engine.scratch_allocs").value(),
                   static_cast<double>(s.stats.alloc_events));
  EXPECT_DOUBLE_EQ(obs::metrics().counter("matching.engine.solves").value(),
                   static_cast<double>(s.stats.solves));
  EXPECT_DOUBLE_EQ(obs::metrics().counter("matching.engine.warm_start_hits").value(),
                   static_cast<double>(s.stats.warm_start_hits));
}

TEST(MatchingEngine, ScratchSurvivesDimensionChanges) {
  // A warm seed from a different-sized matrix must be discarded, not
  // resized: stale match_right entries would point at truncated rows.
  Rng rng(17);
  MatchingScratch s;
  for (const int n : {16, 4, 32, 8}) {
    const Matrix m = testing::random_doubly_stochastic(rng, n, 6, 0.5, 2.0);
    ASSERT_TRUE(bottleneck_solve(m, s)) << "n=" << n;
    const auto ref = dense_reference::bottleneck_perfect_matching_reference(m);
    ASSERT_TRUE(ref.has_value()) << "n=" << n;
    EXPECT_EQ(s.bottleneck, ref->bottleneck) << "n=" << n;
    for (int i = 0; i < n; ++i) EXPECT_EQ(s.final_left[i], ref->pairs[i].second) << "n=" << n;
  }
}

}  // namespace
}  // namespace reco
