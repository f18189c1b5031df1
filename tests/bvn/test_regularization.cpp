#include "bvn/regularization.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/support_index.hpp"
#include "oracles/schedule_checks.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(Regularization, RoundsUpToQuantum) {
  const Matrix m = Matrix::from_rows({{104, 109}, {2, 0}});
  const Matrix r = regularize(m, 100.0);
  EXPECT_DOUBLE_EQ(r.at(0, 0), 200.0);
  EXPECT_DOUBLE_EQ(r.at(0, 1), 200.0);
  EXPECT_DOUBLE_EQ(r.at(1, 0), 100.0);
  EXPECT_DOUBLE_EQ(r.at(1, 1), 0.0);  // zeros stay zero
}

TEST(Regularization, ExactMultiplesUntouched) {
  const Matrix m = Matrix::from_rows({{300, 0}, {0, 100}});
  const Matrix r = regularize(m, 100.0);
  EXPECT_DOUBLE_EQ(r.at(0, 0), 300.0);
  EXPECT_DOUBLE_EQ(r.at(1, 1), 100.0);
}

TEST(Regularization, PaperFig2Example) {
  const Matrix d_ex = Matrix::from_rows({{104, 109, 102}, {103, 105, 107}, {108, 101, 106}});
  const Matrix r = regularize(d_ex, 100.0);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(r.at(i, j), 200.0);
  }
}

TEST(Regularization, RejectsNonPositiveQuantum) {
  EXPECT_THROW(regularize(Matrix(2), 0.0), std::invalid_argument);
  EXPECT_THROW(regularize(Matrix(2), -1.0), std::invalid_argument);
  // NaN fails every comparison, so a `quantum <= 0` guard lets it through.
  Matrix m(2);
  m.at(0, 1) = 1.0;
  for (const double q : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(regularize(m, q), std::invalid_argument) << "quantum=" << q;
    EXPECT_THROW(regularize(SupportIndex(m), q), std::invalid_argument) << "quantum=" << q;
  }
}

TEST(Regularization, MicrosecondScaleQuantum) {
  Matrix m(1);
  m.at(0, 0) = 250e-6;
  const Matrix r = regularize(m, 100e-6);
  EXPECT_NEAR(r.at(0, 0), 300e-6, 1e-12);
}

TEST(RegularizationProperty, ResultIsGranularAndCovers) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const Matrix m = testing::random_demand(rng, 8, 0.5, 0.01, 5.0);
    const double q = rng.uniform(0.05, 0.5);
    const Matrix r = regularize(m, q);
    EXPECT_TRUE(oracle::is_granular(r, q, 1e-9)) << "trial " << trial;
    EXPECT_TRUE(oracle::covers(r, m)) << "trial " << trial;
    EXPECT_EQ(r.nnz(), m.nnz()) << "trial " << trial;
    // Per-entry inflation < one quantum.
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        EXPECT_LT(r.at(i, j) - m.at(i, j), q + 1e-9);
      }
    }
  }
}

TEST(RegularizationProperty, OverheadBoundedByNnzTimesQuantum) {
  Rng rng(37);
  for (int trial = 0; trial < 30; ++trial) {
    const Matrix m = testing::random_demand(rng, 6, 0.7, 0.1, 3.0);
    const double q = 0.25;
    const Time overhead = regularize(m, q).total() - m.total();
    EXPECT_GE(overhead, -1e-9);
    EXPECT_LE(overhead, m.nnz() * q + 1e-9);
  }
}

}  // namespace
}  // namespace reco
