#include "bvn/stuffing.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "bvn/regularization.hpp"
#include "oracles/schedule_checks.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(Stuffing, MakesDoublyStochasticAtRho) {
  const Matrix m = Matrix::from_rows({{1, 2, 3}, {0, 0, 4}, {5, 0, 0}});
  const Matrix s = stuff(m);
  EXPECT_TRUE(oracle::is_doubly_stochastic(s, 1e-9));
  EXPECT_DOUBLE_EQ(s.row_sum(0), m.rho());
}

TEST(Stuffing, OnlyAddsDemand) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 0}});
  const Matrix s = stuff(m);
  EXPECT_TRUE(oracle::covers(s, m));
}

TEST(Stuffing, AlreadyStochasticUnchanged) {
  const Matrix m = Matrix::from_rows({{1, 2}, {2, 1}});
  EXPECT_EQ(stuff(m), m);
}

TEST(Stuffing, GranularTargetIsQuantumMultiple) {
  // rho = 250, quantum = 100 -> target 300.
  const Matrix m = Matrix::from_rows({{250, 0}, {0, 100}});
  const Matrix s = stuff_granular(m, 100.0);
  EXPECT_DOUBLE_EQ(s.row_sum(0), 300.0);
  EXPECT_TRUE(oracle::is_doubly_stochastic(s, 1e-9));
}

TEST(Stuffing, GranularOnRegularizedStaysGranular) {
  // The Reco-Sin invariant: regularized + granular-stuffed => all entries
  // multiples of delta (so all BvN coefficients will be too).
  const Matrix m = Matrix::from_rows({{104, 9, 0}, {3, 0, 107}, {0, 101, 55}});
  const double delta = 100.0;
  const Matrix s = stuff_granular(regularize(m, delta), delta);
  EXPECT_TRUE(oracle::is_granular(s, delta, 1e-9));
  EXPECT_TRUE(oracle::is_doubly_stochastic(s, 1e-9));
}

TEST(Stuffing, RejectsNonPositiveQuantum) {
  EXPECT_THROW(stuff_granular(Matrix(2), 0.0), std::invalid_argument);
  EXPECT_THROW(stuff_granular(Matrix(2), std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(stuff_granular(Matrix(2), std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Stuffing, RepairsResidualSlackFromToleranceCrumbs) {
  // Regression: every column is short by a *sub*-tolerance crumb (clamped
  // to zero slack individually), while one row is short by the *sum* of
  // the crumbs — a multi-eps deficit.  The greedy fill used to skip all of
  // it via approx_zero and silently return a matrix that is not doubly
  // stochastic at kTimeEps; the repair pass must settle the exact deficit.
  const double crumb = 0.8e-9;  // < kTimeEps, so per-column slack clamps to 0
  const int n = 4;
  Matrix d(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) d.at(i, j) = 0.25;
  }
  for (int j = 0; j < n; ++j) d.at(3, j) = 0.25 - crumb;  // row 3 short by 4 crumbs
  ASSERT_DOUBLE_EQ(d.rho(), 1.0);

  const Matrix s = stuff(d);
  EXPECT_TRUE(oracle::is_doubly_stochastic(s, kTimeEps));
  EXPECT_TRUE(oracle::covers(s, d));
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(s.row_sum(i), 1.0, kTimeEps) << "row " << i;
    EXPECT_NEAR(s.col_sum(i), 1.0, kTimeEps) << "col " << i;
  }
}

TEST(StuffingProperty, RandomMatricesStuffCorrectly) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const Matrix m = testing::random_demand(rng, 10, 0.4, 0.1, 4.0);
    const Matrix s = stuff(m);
    EXPECT_TRUE(oracle::is_doubly_stochastic(s, 1e-7)) << "trial " << trial;
    EXPECT_TRUE(oracle::covers(s, m)) << "trial " << trial;
  }
}

TEST(StuffingProperty, GranularInvariantHoldsOnMicrosecondScale) {
  Rng rng(43);
  const double delta = 100e-6;
  for (int trial = 0; trial < 30; ++trial) {
    const Matrix m = testing::random_demand(rng, 8, 0.6, 4 * delta, 200 * delta);
    const Matrix s = stuff_granular(regularize(m, delta), delta);
    EXPECT_TRUE(oracle::is_granular(s, delta, 1e-9)) << "trial " << trial;
    EXPECT_TRUE(oracle::is_doubly_stochastic(s, 1e-9)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace reco
