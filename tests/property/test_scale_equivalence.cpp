// Scale-path equivalence sweep: the bitset Hopcroft-Karp BFS, which kAuto
// selects on dense thresholds at N >= 192, must be *exactly*
// interchangeable with the flat-CSR BFS it replaces.  BFS layer depths are canonical (independent of
// intra-layer visit order) and the DFS phase always walks the CSR
// ascending, so the two expansion strategies must yield bit-identical
// matchings — pinned here across 200 random matrices spanning N in
// {128, 512, 1024} and densities from ultra-sparse to near-dense, for
// plain threshold matching, a value-cut matching, and the full bottleneck
// ladder (warm-seeded, like a peel).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/support_index.hpp"
#include "matching/matching_engine.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

struct ScratchPair {
  MatchingScratch csr;
  MatchingScratch bit;
};

/// Force one scratch onto each BFS strategy and require bit-identical
/// results.  Both scratches see the same matrix sequence, so their warm
/// matchings evolve in lockstep iff every step is identical — the sweep
/// therefore pins the warm-start path as well as cold starts.
void expect_hk_equivalent(const SupportIndex& idx, ScratchPair& s, double value_cut,
                          const std::string& ctx) {
  s.csr.hk_mode = HkMode::kCsr;
  s.bit.hk_mode = HkMode::kBitset;
  const int n = idx.n();
  for (const double threshold : {2 * kTimeEps, value_cut}) {
    std::vector<int> ml_a(n, -1), mr_a(n, -1), ml_b(n, -1), mr_b(n, -1);
    build_csr(idx, threshold, /*with_values=*/false, s.csr);
    const int size_a = hk_augment_csr(s.csr, ml_a, mr_a, threshold, /*check_value=*/false);
    build_csr(idx, threshold, /*with_values=*/false, s.bit);
    const int size_b = hk_augment_csr(s.bit, ml_b, mr_b, threshold, /*check_value=*/false);
    ASSERT_EQ(size_a, size_b) << ctx << " threshold " << threshold;
    ASSERT_EQ(ml_a, ml_b) << ctx << " threshold " << threshold;
    ASSERT_EQ(mr_a, mr_b) << ctx << " threshold " << threshold;
  }
  const bool ok_a = bottleneck_solve(idx, s.csr);
  const bool ok_b = bottleneck_solve(idx, s.bit);
  ASSERT_EQ(ok_a, ok_b) << ctx;
  if (ok_a) {
    ASSERT_EQ(s.csr.bottleneck, s.bit.bottleneck) << ctx;
    ASSERT_EQ(s.csr.final_left, s.bit.final_left) << ctx;
    ASSERT_EQ(s.csr.final_right, s.bit.final_right) << ctx;
  }
}

TEST(ScaleEquivalence, BitsetMatchesCsrAcross200Matrices) {
  Rng rng(1024);
  ScratchPair s;
  int matrices = 0;
  // Trials weighted toward small N so the sweep stays fast; the large
  // sizes are the ones that exercise multi-word frontiers.
  struct Cell {
    int n;
    double density;
    int trials;
  };
  const Cell grid[] = {
      {128, 0.02, 30}, {128, 0.08, 30}, {128, 0.3, 30}, {128, 0.7, 30},
      {512, 0.02, 20}, {512, 0.1, 20},  {512, 0.3, 20},
      {1024, 0.05, 10}, {1024, 0.2, 10},
  };
  for (const Cell& cell : grid) {
    for (int t = 0; t < cell.trials; ++t) {
      const Matrix demand =
          testing::random_demand(rng, cell.n, cell.density, 0.5, 10.0);
      const SupportIndex idx(demand);
      const std::string ctx = "n=" + std::to_string(cell.n) + " d=" +
                              std::to_string(cell.density) + " trial=" + std::to_string(t);
      expect_hk_equivalent(idx, s, /*value_cut=*/5.0, ctx);
      ++matrices;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(matrices, 200);
  // The forced-kBitset scratch must actually have run word-parallel
  // phases — otherwise the sweep silently compared CSR with itself.
  EXPECT_GT(s.bit.stats.bitset_phases, 0u);
  EXPECT_GT(s.bit.stats.bitset_builds, 0u);
  EXPECT_EQ(s.csr.stats.bitset_phases, 0u);
}

TEST(ScaleEquivalence, AutoModePicksBitsetOnlyAboveTheGate) {
  Rng rng(77);
  MatchingScratch s;  // hk_mode defaults to kAuto
  // Below the port gate: dense 128-port matrix stays on CSR.
  const Matrix small = testing::random_demand(rng, 128, 0.5, 0.5, 10.0);
  bottleneck_solve(SupportIndex(small), s);
  EXPECT_EQ(s.stats.bitset_phases, 0u);
  // Above the gate and above the density cut: bitset engages.
  const Matrix large = testing::random_demand(rng, 512, 0.25, 0.5, 10.0);
  bottleneck_solve(SupportIndex(large), s);
  EXPECT_GT(s.stats.bitset_phases, 0u);
  // Above the gate but ultra-sparse: CSR retained.
  const std::uint64_t phases_before = s.stats.bitset_phases;
  const Matrix sparse = testing::random_demand(rng, 512, 0.01, 0.5, 10.0);
  bottleneck_solve(SupportIndex(sparse), s);
  EXPECT_EQ(s.stats.bitset_phases, phases_before);
}

}  // namespace
}  // namespace reco
