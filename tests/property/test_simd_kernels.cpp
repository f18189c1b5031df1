// SIMD kernel bit-equivalence sweep: every kernel in core/simd.hpp at
// every supported dispatch tier (scalar, and AVX2 where the CPU has it)
// must produce output bit-identical to the scalar reference tier.  The
// sweep drives all four value-pool kernels with operands taken from real
// SupportIndex rows — 200 random matrices spanning N in {128, 512, 1024}
// and densities from ultra-sparse to near-dense — so the vector tail
// handling and the equal-valued runs of stuffed-style data are both
// exercised, not just round-multiple-of-8 arrays.
//
// Bit-identical means bit-identical: doubles are compared through
// memcmp, so a -0.0 vs +0.0 or NaN-payload divergence fails even where
// operator== would pass.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/matrix.hpp"
#include "core/simd.hpp"
#include "core/support_index.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                       int count, const std::string& ctx) {
  for (int k = 0; k < count; ++k) {
    ASSERT_TRUE(bits_equal(a[k], b[k]))
        << ctx << " lane " << k << ": " << a[k] << " vs " << b[k];
  }
}

/// Pin every kernel of `level` against the scalar tier on one row's
/// support values.
void check_row(const SupportIndex& idx, int row, simd::Level level, const std::string& ctx) {
  const simd::Kernels& ref = simd::kernels_for(simd::Level::kScalar);
  const simd::Kernels& kn = simd::kernels_for(level);
  const auto row_vals = idx.row_values(row);
  const int len = row_vals.size();
  if (len == 0) return;
  const std::vector<double> vals(row_vals.begin(), row_vals.end());
  std::vector<double> a, b;

  ASSERT_TRUE(bits_equal(kn.min_value(vals.data(), len, vals[0]),
                         ref.min_value(vals.data(), len, vals[0])))
      << ctx << " min_value";
  // Cut at a value actually present so the <= boundary is hit, plus one
  // strictly interior cut.
  for (const double cut : {vals[len / 2], 0.5 * (vals[0] + vals[len - 1])}) {
    ASSERT_TRUE(bits_equal(kn.max_value_leq(vals.data(), len, cut, 0.0),
                           ref.max_value_leq(vals.data(), len, cut, 0.0)))
        << ctx << " max_value_leq cut=" << cut;
  }

  // Partitions mutate in place: run each tier on its own copy.  The kept
  // prefix must match bit-for-bit and in order (stability); lanes beyond
  // the kept count are unspecified by contract.
  for (const double pivot : {vals[len / 2], 0.0}) {
    a = vals;
    b = vals;
    const int wa = kn.partition_greater(a.data(), len, pivot);
    const int wb = ref.partition_greater(b.data(), len, pivot);
    ASSERT_EQ(wa, wb) << ctx << " partition_greater pivot=" << pivot;
    expect_bits_equal(a, b, wa, ctx + " partition_greater kept");
  }
  {
    const double upper = vals[len / 2];
    const double certify = len >= 4 ? vals[len / 4] : upper;
    a = vals;
    b = vals;
    std::int64_t ca = 0, cb = 0;
    const int wa = kn.partition_keep_below(a.data(), len, upper, certify, &ca);
    const int wb = ref.partition_keep_below(b.data(), len, upper, certify, &cb);
    ASSERT_EQ(wa, wb) << ctx << " partition_keep_below";
    ASSERT_EQ(ca, cb) << ctx << " partition_keep_below certified";
    expect_bits_equal(a, b, wa, ctx + " partition_keep_below kept");
  }
}

TEST(SimdKernels, EveryTierMatchesScalarAcross200Matrices) {
  const std::vector<simd::Level> levels = simd::supported_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);

  Rng rng(2048);
  struct Cell {
    int n;
    double density;
    int trials;
  };
  // Same shape as the Hopcroft-Karp sweep: weighted toward small N, with
  // the large sizes supplying long rows (many full vector blocks) and the
  // sparse ones supplying 1-3 element tails.
  const Cell grid[] = {
      {128, 0.02, 40}, {128, 0.08, 40}, {128, 0.3, 30}, {128, 0.7, 30},
      {512, 0.02, 15}, {512, 0.1, 15},  {512, 0.3, 10},
      {1024, 0.05, 10}, {1024, 0.2, 10},
  };
  int matrices = 0;
  for (const Cell& cell : grid) {
    for (int t = 0; t < cell.trials; ++t) {
      const Matrix dense = testing::random_demand(rng, cell.n, cell.density, 0.5, 10.0);
      const SupportIndex idx(dense);
      // A handful of rows per matrix keeps the sweep fast; rows differ in
      // degree, so tails of every length show up across the 200 matrices.
      for (const int row : {0, cell.n / 3, cell.n / 2, cell.n - 1}) {
        for (const simd::Level level : levels) {
          const std::string ctx = "n=" + std::to_string(cell.n) +
                                  " d=" + std::to_string(cell.density) +
                                  " t=" + std::to_string(t) + " row=" + std::to_string(row) +
                                  " level=" + simd::level_name(level);
          check_row(idx, row, level, ctx);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
      ++matrices;
    }
  }
  EXPECT_EQ(matrices, 200);
}

TEST(SimdKernels, EdgeLengthsAndEqualRuns) {
  // Degenerate shapes the matrix sweep cannot guarantee: empty input,
  // single lane, exact vector widths, and all-equal values (the stuffed
  // crumb pattern, where max/min tie-breaking has the most room to drift).
  const std::vector<simd::Level> levels = simd::supported_levels();
  const simd::Kernels& ref = simd::kernels_for(simd::Level::kScalar);
  for (const simd::Level level : levels) {
    const simd::Kernels& kn = simd::kernels_for(level);
    const std::string ctx = std::string("level=") + simd::level_name(level);
    EXPECT_EQ(kn.min_value(nullptr, 0, 1.5), 1.5) << ctx;
    EXPECT_EQ(kn.partition_greater(nullptr, 0, 1.5), 0) << ctx;
    for (const int len : {1, 2, 3, 4, 5, 7, 8, 9, 16, 33}) {
      std::vector<double> v(len, 2.5);  // all-equal run
      ASSERT_TRUE(bits_equal(kn.min_value(v.data(), len, v[0]),
                             ref.min_value(v.data(), len, v[0])))
          << ctx << " len=" << len;
      // Cut on the run's value: every element sits at the <= boundary.
      ASSERT_TRUE(bits_equal(kn.max_value_leq(v.data(), len, 2.5, 0.0),
                             ref.max_value_leq(v.data(), len, 2.5, 0.0)))
          << ctx << " len=" << len;
      // Pivot equal to every element: partition keeps nothing (> is strict).
      std::vector<double> a = v;
      std::vector<double> b = v;
      ASSERT_EQ(kn.partition_greater(a.data(), len, 2.5),
                ref.partition_greater(b.data(), len, 2.5))
          << ctx << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace reco
