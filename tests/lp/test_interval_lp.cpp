#include "lp/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sched/ordering.hpp"

#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

Coflow make_coflow(int id, double weight, const Matrix& demand) {
  Coflow c;
  c.id = id;
  c.weight = weight;
  c.demand = demand;
  return c;
}

TEST(IntervalLp, EmptyWorkload) {
  const auto r = lp::solve_interval_indexed_lp({});
  EXPECT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_TRUE(r.est_completion.empty());
}

TEST(IntervalLp, SingleCoflowEstimateAtLeastBottleneck) {
  const auto coflows =
      std::vector<Coflow>{make_coflow(0, 1.0, Matrix::from_rows({{2, 0}, {0, 2}}))};
  const auto r = lp::solve_interval_indexed_lp(coflows);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(r.est_completion.size(), 1u);
  EXPECT_GE(r.est_completion[0], 2.0 - 1e-9);
}

TEST(IntervalLp, HeavierCoflowFinishesLater) {
  // Two coflows sharing port 0: the small one should get the earlier
  // fractional completion (classic SPT behaviour of the relaxation).
  Matrix small(2);
  small.at(0, 0) = 1.0;
  Matrix big(2);
  big.at(0, 0) = 8.0;
  const auto coflows =
      std::vector<Coflow>{make_coflow(0, 1.0, big), make_coflow(1, 1.0, small)};
  const auto r = lp::solve_interval_indexed_lp(coflows);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(r.est_completion[1], r.est_completion[0]);
}

TEST(IntervalLp, WeightsBreakTies) {
  // Identical demands; the heavy-weight coflow should not complete later.
  Matrix d(2);
  d.at(0, 0) = 4.0;
  const auto coflows =
      std::vector<Coflow>{make_coflow(0, 0.1, d), make_coflow(1, 10.0, d)};
  const auto r = lp::solve_interval_indexed_lp(coflows);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_LE(r.est_completion[1], r.est_completion[0] + 1e-9);
}

TEST(IntervalLp, DisjointCoflowsAllFinishInFirstIntervals) {
  // No port contention: every estimate ~ its own bottleneck scale.
  Matrix a(3);
  a.at(0, 0) = 2.0;
  Matrix b(3);
  b.at(1, 1) = 2.0;
  const auto coflows = std::vector<Coflow>{make_coflow(0, 1.0, a), make_coflow(1, 1.0, b)};
  const auto r = lp::solve_interval_indexed_lp(coflows);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(r.est_completion[0], 2.0, 1e-6);
  EXPECT_NEAR(r.est_completion[1], 2.0, 1e-6);
}

TEST(IntervalLp, IntervalGridCoversLoads) {
  Rng rng(91);
  const auto coflows = testing::random_workload(rng, 6, 4, 0.01, 4.0);
  const auto r = lp::solve_interval_indexed_lp(coflows);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  ASSERT_FALSE(r.interval_ends.empty());
  // Grid must reach the max port load so every coflow can complete.
  double max_load = 0.0;
  const int n = coflows.front().demand.n();
  for (int p = 0; p < n; ++p) {
    double in_load = 0.0;
    double out_load = 0.0;
    for (const Coflow& c : coflows) {
      in_load += c.demand.row_sum(p);
      out_load += c.demand.col_sum(p);
    }
    max_load = std::max({max_load, in_load, out_load});
  }
  EXPECT_GE(r.interval_ends.back(), max_load - 1e-9);
}

TEST(IntervalLp, SizeGuardRejectsOversizedInstances) {
  // One tiny coflow starts the doubling grid at 1e-6, so it needs dozens
  // of intervals to pass the largest port load: 300 coflows then need more
  // than the 6000 variables the solver accepts.  It must refuse, not grind.
  Rng rng(95);
  auto coflows = testing::random_workload(rng, 300, 4, 0.5, 2.0);
  coflows[0].demand = Matrix(4);
  coflows[0].demand.at(0, 1) = 1e-6;
  const auto r = lp::solve_interval_indexed_lp(coflows);
  ASSERT_GT(coflows.size() * r.interval_ends.size(), 6000u);
  EXPECT_EQ(r.status, lp::SolveStatus::kIterLimit);
  // And the ordering layer must fall back gracefully (BSSI), still
  // returning a valid permutation.
  const std::vector<int> order = lp_order(coflows);
  EXPECT_EQ(order, bssi_order(coflows));
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int k = 0; k < 300; ++k) EXPECT_EQ(sorted[k], k);
}

TEST(IntervalLp, RandomWorkloadsSolveAndRankSensibly) {
  Rng rng(93);
  for (int trial = 0; trial < 5; ++trial) {
    const auto coflows = testing::random_workload(rng, 8, 5, 0.01, 2.0);
    const auto r = lp::solve_interval_indexed_lp(coflows);
    ASSERT_EQ(r.status, lp::SolveStatus::kOptimal) << "trial " << trial;
    for (std::size_t k = 0; k < coflows.size(); ++k) {
      EXPECT_GE(r.est_completion[k], coflows[k].demand.rho() - 1e-6)
          << "trial " << trial << " coflow " << k;
    }
  }
}

}  // namespace
}  // namespace reco
