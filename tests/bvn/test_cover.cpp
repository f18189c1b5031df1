#include <gtest/gtest.h>

#include "bvn/bvn.hpp"
#include "core/support_index.hpp"
#include "oracles/schedule_checks.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(CoverDecompose, EmptyMatrix) {
  EXPECT_EQ(cover_decompose(SupportIndex(Matrix(3))).num_assignments(), 0);
}

TEST(CoverDecompose, SingleEntry) {
  Matrix m(2);
  m.at(0, 1) = 3.0;
  const CircuitSchedule s = cover_decompose(SupportIndex(m));
  ASSERT_EQ(s.num_assignments(), 1);
  EXPECT_DOUBLE_EQ(s.assignments[0].duration, 3.0);
}

TEST(CoverDecompose, WorksWithoutBirkhoffStructure) {
  // Not doubly stochastic, not even balanced: bvn_decompose would reject
  // this; cover must handle it.
  const Matrix m = Matrix::from_rows({{5, 1}, {2, 0}});
  const CircuitSchedule s = cover_decompose(SupportIndex(m));
  EXPECT_TRUE(s.is_valid(2));
  EXPECT_TRUE(oracle::satisfies(s, m));
}

TEST(CoverDecompose, CoversButMayOverServe) {
  const Matrix m = Matrix::from_rows({{5, 0}, {0, 1}});
  const CircuitSchedule s = cover_decompose(SupportIndex(m));
  ASSERT_EQ(s.num_assignments(), 1);
  // One matching covering both entries, held to the larger.
  EXPECT_DOUBLE_EQ(s.assignments[0].duration, 5.0);
  EXPECT_TRUE(oracle::covers(oracle::service_matrix(s, 2), m));
}

TEST(CoverDecompose, RoundsBoundedByMaxLineNnz) {
  Rng rng(621);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix m = testing::random_demand(rng, 7, rng.uniform(0.1, 0.9), 0.1, 5.0);
    const CircuitSchedule s = cover_decompose(SupportIndex(m));
    EXPECT_TRUE(oracle::satisfies(s, m)) << "trial " << trial;
    // Each round zeroes a whole maximum matching.  (An arbitrary maximum
    // matching need not cover every max-degree vertex, so tau rounds is
    // not a hard bound — but it never strays far in practice.)
    EXPECT_LE(s.num_assignments(), 2 * m.tau() + 2) << "trial " << trial;
  }
}

TEST(CoverDecompose, ZeroRowsAndColumnsAreFine) {
  Matrix m(4);
  m.at(1, 2) = 1.0;
  m.at(3, 0) = 2.0;
  const CircuitSchedule s = cover_decompose(SupportIndex(m));
  EXPECT_EQ(s.num_assignments(), 1);  // disjoint ports: one matching
  EXPECT_TRUE(oracle::satisfies(s, m));
}

}  // namespace
}  // namespace reco
