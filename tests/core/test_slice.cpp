#include "core/slice.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "trace/rng.hpp"

namespace reco {
namespace {

Coflow make_coflow(CoflowId id, const Matrix& demand) {
  Coflow c;
  c.id = id;
  c.demand = demand;
  return c;
}

TEST(Slice, DurationAndEquality) {
  const FlowSlice s{1.0, 3.5, 0, 1, 2};
  EXPECT_DOUBLE_EQ(s.duration(), 2.5);
  EXPECT_EQ(s, (FlowSlice{1.0, 3.5, 0, 1, 2}));
}

TEST(Slice, PortFeasibleWhenDisjointInTime) {
  const SliceSchedule sched{{0, 1, 0, 0, 0}, {1, 2, 0, 0, 1}};
  EXPECT_TRUE(is_port_feasible(sched));
}

TEST(Slice, PortInfeasibleOnIngressOverlap) {
  const SliceSchedule sched{{0, 2, 0, 0, 0}, {1, 3, 0, 1, 1}};
  EXPECT_FALSE(is_port_feasible(sched));
}

TEST(Slice, PortInfeasibleOnEgressOverlap) {
  const SliceSchedule sched{{0, 2, 0, 1, 0}, {1, 3, 1, 1, 1}};
  EXPECT_FALSE(is_port_feasible(sched));
}

TEST(Slice, DifferentPortsMayOverlap) {
  const SliceSchedule sched{{0, 2, 0, 0, 0}, {0, 2, 1, 1, 1}};
  EXPECT_TRUE(is_port_feasible(sched));
}

TEST(Slice, BackwardsSliceInfeasible) {
  const SliceSchedule sched{{2, 1, 0, 0, 0}};
  EXPECT_FALSE(is_port_feasible(sched));
}

TEST(Slice, SatisfiesDemandsExactly) {
  const auto coflows = std::vector<Coflow>{make_coflow(0, Matrix::from_rows({{0, 3}, {0, 0}}))};
  EXPECT_TRUE(satisfies_demands({{0, 2, 0, 1, 0}, {5, 6, 0, 1, 0}}, coflows));
  EXPECT_FALSE(satisfies_demands({{0, 2, 0, 1, 0}}, coflows));          // under
  EXPECT_FALSE(satisfies_demands({{0, 4, 0, 1, 0}}, coflows));          // over
  EXPECT_FALSE(satisfies_demands({{0, 3, 1, 0, 0}}, coflows));          // wrong flow
}

TEST(Slice, CompletionTimesPerCoflow) {
  const SliceSchedule sched{{0, 2, 0, 0, 0}, {1, 5, 1, 1, 0}, {0, 3, 2, 2, 1}};
  const std::vector<Time> cct = completion_times(sched, 3);
  EXPECT_DOUBLE_EQ(cct[0], 5.0);
  EXPECT_DOUBLE_EQ(cct[1], 3.0);
  EXPECT_DOUBLE_EQ(cct[2], 0.0);  // no slices
}

TEST(Slice, TotalWeightedCct) {
  std::vector<Coflow> coflows{make_coflow(0, Matrix(1)), make_coflow(1, Matrix(1))};
  coflows[0].weight = 2.0;
  coflows[1].weight = 0.5;
  EXPECT_DOUBLE_EQ(total_weighted_cct({4.0, 8.0}, coflows), 2.0 * 4.0 + 0.5 * 8.0);
}

TEST(Slice, StartBatchesDeduplicates) {
  const SliceSchedule sched{{0, 1, 0, 0, 0}, {0, 2, 1, 1, 0}, {5, 6, 0, 0, 0}};
  const std::vector<Time> batches = start_batches(sched);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_DOUBLE_EQ(batches[0], 0.0);
  EXPECT_DOUBLE_EQ(batches[1], 5.0);
}

TEST(Slice, MakespanIsMaxEnd) {
  EXPECT_DOUBLE_EQ(makespan({{0, 7, 0, 0, 0}, {1, 3, 1, 1, 0}}), 7.0);
  EXPECT_DOUBLE_EQ(makespan({}), 0.0);
}

/// The order order_by_start promises: indices by start, equal starts (and
/// -0.0 beside +0.0) in index order.
std::vector<std::size_t> stable_order_by_start(const SliceSchedule& slices) {
  std::vector<std::size_t> order(slices.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return slices[a].start < slices[b].start;
  });
  return order;
}

SliceSchedule with_starts(const std::vector<Time>& starts) {
  SliceSchedule slices;
  for (const Time t : starts) slices.push_back({t, t + 1.0, 0, 0, 0});
  return slices;
}

TEST(StartOrder, MatchesStableSortByStart) {
  // Sizes on both sides of insertion sort's 16, and large ones; key sets
  // with many or only duplicates, signed zeros, and magnitudes from 1e-12
  // to 1e4, so that every key byte varies somewhere.
  const std::vector<std::size_t> sizes{0, 1, 2, 16, 17, 1000, 100000};
  const auto draw = [](Rng& rng, int set) -> Time {
    switch (set) {
      case 0:  // many duplicates
        return 0.25 * rng.uniform_int(8);
      case 1:  // all keys equal
        return 3.5;
      case 2:  // +0.0 beside -0.0, among a few small values of both signs
        return std::vector<Time>{0.0, -0.0, 0.0, -0.0, 1e-12, -1e-12}[rng.uniform_int(6)];
      default:  // log-uniform over [1e-12, 1e4], some negated, some repeated
        const Time v = std::pow(10.0, rng.uniform(-12.0, 4.0));
        return rng.uniform() < 0.1 ? -v : (rng.uniform() < 0.1 ? 1.0 : v);
    }
  };
  Rng rng(173);
  std::vector<std::size_t> order{7, 7, 7};  // stale contents must not leak
  std::vector<StartKey> keys;
  std::vector<StartKey> temp;
  for (const std::size_t n : sizes) {
    for (int set = 0; set < 4; ++set) {
      std::vector<Time> starts(n);
      for (Time& t : starts) t = draw(rng, set);
      const SliceSchedule slices = with_starts(starts);
      order_by_start(slices, order, keys, temp);
      EXPECT_EQ(order, stable_order_by_start(slices)) << "n=" << n << " set " << set;
    }
  }
}

}  // namespace
}  // namespace reco
