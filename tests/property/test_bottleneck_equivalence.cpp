// Randomized bit-equivalence of the bottleneck search against the retained
// seed oracle (dense_reference::bottleneck_perfect_matching_reference),
// whose recursive Hopcroft-Karp and per-probe adjacency lists are the
// seed's code.  Values and pairs must match across the bench density grid
// and at N = 128 and 512, where augmenting paths run long and column sets
// span several 64-bit words.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "bvn/stuffing.hpp"
#include "matching/bottleneck.hpp"
#include "oracles/dense_reference.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

void expect_matchings_identical(const std::optional<BottleneckMatching>& search,
                                const std::optional<BottleneckMatching>& oracle,
                                const std::string& context) {
  ASSERT_EQ(search.has_value(), oracle.has_value()) << context;
  if (!search) return;
  // Bit-identical, not approximately equal: the search selects the same
  // ladder entry and runs the same final matching as the seed.
  EXPECT_EQ(search->bottleneck, oracle->bottleneck) << context;
  EXPECT_EQ(search->pairs, oracle->pairs) << context;
}

/// The search against the seed oracle.  Stuffing `m` guarantees a perfect
/// matching; the raw matrices also exercise agreement on infeasible
/// (nullopt) inputs.
void expect_search_matches_seed(const Matrix& m, const std::string& context) {
  expect_matchings_identical(bottleneck_perfect_matching(m),
                             dense_reference::bottleneck_perfect_matching_reference(m), context);
}

TEST(BottleneckEquivalence, BitIdenticalToSeedOn220RandomMatrices) {
  // 40 matrices per density across the bench sweep grid (permille
  // {50, 100, 200, 500, 1000} in bench_micro_kernels.cpp) = 200 total,
  // half of them stuffed.
  Rng rng(20260806);
  int trials = 0;
  for (const double density : {0.05, 0.1, 0.2, 0.5, 1.0}) {
    for (int k = 0; k < 40; ++k) {
      const int n = 4 + static_cast<int>(rng.uniform_int(29));  // 4..32
      Matrix m = testing::random_demand(rng, n, density, 0.5, 10.0);
      if (k % 2 == 0 && m.nnz() > 0) m = stuff(m);
      expect_search_matches_seed(m, "density=" + std::to_string(density) + " trial=" +
                                        std::to_string(k) + " n=" + std::to_string(n));
      ++trials;
    }
  }
  // Large-N cells: 20 more matrices, half of them stuffed.
  struct Cell {
    int n;
    double density;
    int trials;
  };
  const Cell grid[] = {{128, 0.02, 6}, {128, 0.3, 6}, {512, 0.02, 4}, {512, 0.1, 4}};
  for (const Cell& cell : grid) {
    for (int k = 0; k < cell.trials; ++k) {
      Matrix m = testing::random_demand(rng, cell.n, cell.density, 0.5, 10.0);
      if (k % 2 == 0) m = stuff(m);
      expect_search_matches_seed(m, "n=" + std::to_string(cell.n) + " density=" +
                                        std::to_string(cell.density) + " trial=" +
                                        std::to_string(k));
      ++trials;
    }
  }
  EXPECT_EQ(trials, 220);
}

}  // namespace
}  // namespace reco
