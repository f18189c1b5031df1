#include "core/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "oracles/schedule_checks.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.n(), 0);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_DOUBLE_EQ(m.total(), 0.0);
}

TEST(Matrix, ZeroConstructed) {
  Matrix m(4);
  EXPECT_EQ(m.n(), 4);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_DOUBLE_EQ(m.rho(), 0.0);
  EXPECT_EQ(m.tau(), 0);
}

TEST(Matrix, FromRowsAndAccess) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(m.n(), 2);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.total(), 10.0);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW((Matrix::from_rows({{1.0}, {2.0, 3.0}})), std::invalid_argument);
}

TEST(Matrix, RowColSums) {
  const Matrix m = Matrix::from_rows({{1, 2, 3}, {0, 0, 4}, {5, 0, 0}});
  EXPECT_DOUBLE_EQ(m.row_sum(0), 6.0);
  EXPECT_DOUBLE_EQ(m.row_sum(1), 4.0);
  EXPECT_DOUBLE_EQ(m.col_sum(0), 6.0);
  EXPECT_DOUBLE_EQ(m.col_sum(2), 7.0);
}

TEST(Matrix, RhoIsMaxRowOrColSum) {
  // Column 2 dominates: 3 + 4 = 7.
  const Matrix m = Matrix::from_rows({{1, 2, 3}, {0, 0, 4}, {5, 0, 0}});
  EXPECT_DOUBLE_EQ(m.rho(), 7.0);
}

TEST(Matrix, TauIsMaxNnzPerLine) {
  const Matrix m = Matrix::from_rows({{1, 2, 3}, {0, 0, 4}, {5, 0, 0}});
  EXPECT_EQ(m.tau(), 3);  // row 0 has three nonzeros
  const Matrix col_heavy = Matrix::from_rows({{1, 0}, {1, 0}});
  EXPECT_EQ(col_heavy.tau(), 2);  // column 0
}

TEST(Matrix, NnzIgnoresTolerance) {
  Matrix m(2);
  m.at(0, 0) = kTimeEps / 2;
  m.at(1, 1) = 1.0;
  EXPECT_EQ(m.nnz(), 1);
}

TEST(Matrix, Density) {
  const Matrix m = Matrix::from_rows({{1, 0}, {0, 1}});
  EXPECT_DOUBLE_EQ(m.density(), 0.5);
}

TEST(Matrix, MaxEntryMinNonzero) {
  const Matrix m = Matrix::from_rows({{0, 5}, {2, 0}});
  EXPECT_DOUBLE_EQ(m.max_entry(), 5.0);
  EXPECT_DOUBLE_EQ(m.min_nonzero(), 2.0);
  EXPECT_DOUBLE_EQ(Matrix(3).min_nonzero(), 0.0);
}

TEST(Matrix, DoublyStochasticCheck) {
  const Matrix ds = Matrix::from_rows({{1, 2}, {2, 1}});
  EXPECT_TRUE(oracle::is_doubly_stochastic(ds));
  const Matrix not_ds = Matrix::from_rows({{1, 2}, {1, 2}});
  EXPECT_FALSE(oracle::is_doubly_stochastic(not_ds));
}

TEST(Matrix, GranularCheck) {
  const Matrix g = Matrix::from_rows({{100, 200}, {0, 300}});
  EXPECT_TRUE(oracle::is_granular(g, 100.0));
  EXPECT_FALSE(oracle::is_granular(g, 70.0));
  EXPECT_FALSE(oracle::is_granular(g, 0.0));
}

TEST(Matrix, CoversIsEntrywise) {
  const Matrix big = Matrix::from_rows({{2, 2}, {2, 2}});
  const Matrix small = Matrix::from_rows({{1, 2}, {0, 2}});
  EXPECT_TRUE(oracle::covers(big, small));
  EXPECT_FALSE(oracle::covers(small, big));
  EXPECT_FALSE(oracle::covers(big, Matrix(3)));  // size mismatch
}

TEST(Matrix, PlusEqualsAddsEntrywise) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{1, 1}, {1, 1}});
  a += b;
  EXPECT_DOUBLE_EQ(a.at(1, 1), 5.0);
}

TEST(Matrix, ArithmeticSizeMismatchThrows) {
  Matrix a(2);
  const Matrix b(3);
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Matrix, ToStringContainsEntries) {
  const Matrix m = Matrix::from_rows({{1.5, 0}, {0, 2.5}});
  const std::string s = m.to_string();
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(MatrixProperty, RandomDoublyStochasticHasEqualSums) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix m = testing::random_doubly_stochastic(rng, 6, 4, 0.5, 3.0);
    EXPECT_TRUE(oracle::is_doubly_stochastic(m, 1e-9));
    EXPECT_NEAR(m.row_sum(0) * 6, m.total(), 1e-6);
  }
}

}  // namespace
}  // namespace reco
