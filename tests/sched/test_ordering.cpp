#include "sched/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/slice.hpp"
#include "sched/packet_scheduler.hpp"
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

bool is_permutation_of_indices(const std::vector<int>& order, std::size_t n) {
  if (order.size() != n) return false;
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < n; ++i) {
    if (sorted[i] != static_cast<int>(i)) return false;
  }
  return true;
}

TEST(Ordering, SebfSortsByBottleneck) {
  Matrix big(2);
  big.at(0, 0) = 9.0;
  Matrix small(2);
  small.at(0, 0) = 1.0;
  const std::vector<Coflow> coflows{make_coflow(0, 1.0, big), make_coflow(1, 1.0, small)};
  EXPECT_EQ(sebf_order(coflows), (std::vector<int>{1, 0}));
}

TEST(Ordering, SebfStableOnTies) {
  Matrix d(2);
  d.at(0, 0) = 3.0;
  const std::vector<Coflow> coflows{make_coflow(0, 1.0, d), make_coflow(1, 1.0, d)};
  EXPECT_EQ(sebf_order(coflows), (std::vector<int>{0, 1}));
}

TEST(Ordering, BssiPrefersShortOnSharedPort) {
  // Equal weights, shared bottleneck: the long coflow should go last.
  Matrix big(2);
  big.at(0, 0) = 9.0;
  Matrix small(2);
  small.at(0, 0) = 1.0;
  const std::vector<Coflow> coflows{make_coflow(0, 1.0, big), make_coflow(1, 1.0, small)};
  EXPECT_EQ(bssi_order(coflows), (std::vector<int>{1, 0}));
}

TEST(Ordering, BssiRespectsWeights) {
  // Same demands; the high-weight coflow should come first.
  Matrix d(2);
  d.at(0, 0) = 4.0;
  const std::vector<Coflow> coflows{make_coflow(0, 0.01, d), make_coflow(1, 100.0, d)};
  EXPECT_EQ(bssi_order(coflows).front(), 1);
}

TEST(Ordering, BssiBottleneckTieTakesLowestPort) {
  // Equal single-flow coflows on disjoint port pairs: all four port totals
  // tie at 5.  The first tied port, ingress 0, carries only coflow 1, so
  // coflow 1 goes last.  A scan that kept the last maximum would pick
  // egress 1, which carries only coflow 0, and reverse the order.
  Matrix a(2);
  a.at(1, 1) = 5.0;
  Matrix b(2);
  b.at(0, 0) = 5.0;
  const std::vector<Coflow> coflows{make_coflow(0, 1.0, a), make_coflow(1, 1.0, b)};
  EXPECT_EQ(bssi_order(coflows), (std::vector<int>{0, 1}));
}

TEST(Ordering, BssiHandlesEmptyAndZeroCoflows) {
  EXPECT_TRUE(bssi_order({}).empty());
  const std::vector<Coflow> coflows{make_coflow(0, 1.0, Matrix(2)),
                                    make_coflow(1, 1.0, Matrix(2))};
  EXPECT_TRUE(is_permutation_of_indices(bssi_order(coflows), 2));
}

TEST(Ordering, AllPoliciesReturnPermutations) {
  Rng rng(131);
  const auto coflows = testing::random_workload(rng, 10, 5, 0.01, 4.0);
  for (OrderingPolicy p : {OrderingPolicy::kSebf, OrderingPolicy::kBssi, OrderingPolicy::kLp}) {
    EXPECT_TRUE(is_permutation_of_indices(order_coflows(coflows, p), coflows.size()));
  }
}

TEST(Ordering, BssiBeatsReverseBssiOnWeightedCct) {
  // Sanity for the primal-dual: its order should not be worse than its own
  // reversal for total weighted CCT under the packet scheduler.
  Rng rng(132);
  int wins = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    const auto coflows = testing::random_workload(rng, 8, 4, 0.01, 4.0);
    std::vector<int> order = bssi_order(coflows);
    std::vector<int> reversed(order.rbegin(), order.rend());
    const auto cct_fwd =
        completion_times(packet_schedule(coflows, order), static_cast<int>(coflows.size()));
    const auto cct_rev =
        completion_times(packet_schedule(coflows, reversed), static_cast<int>(coflows.size()));
    if (total_weighted_cct(cct_fwd, coflows) <= total_weighted_cct(cct_rev, coflows) + 1e-9) {
      ++wins;
    }
  }
  EXPECT_GE(wins, 8) << "BSSI lost to its own reversal too often";
}

TEST(Ordering, LpOrderPrefersSmallJobs) {
  Matrix big(2);
  big.at(0, 0) = 8.0;
  Matrix small(2);
  small.at(0, 0) = 1.0;
  const std::vector<Coflow> coflows{make_coflow(0, 1.0, big), make_coflow(1, 1.0, small)};
  EXPECT_EQ(lp_order(coflows), (std::vector<int>{1, 0}));
}

}  // namespace
}  // namespace reco
