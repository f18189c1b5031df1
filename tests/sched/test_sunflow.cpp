#include "sched/sunflow.hpp"

#include <gtest/gtest.h>

#include "core/lower_bound.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

TEST(Sunflow, EmptyDemand) {
  const SunflowResult r = sunflow(Matrix(3), 0.1);
  EXPECT_TRUE(r.schedule.empty());
  EXPECT_DOUBLE_EQ(r.cct, 0.0);
  EXPECT_EQ(r.reconfigurations, 0);
}

TEST(Sunflow, SingleFlowPaysOneSetup) {
  Matrix d(2);
  d.at(0, 1) = 5.0;
  const SunflowResult r = sunflow(d, 1.0);
  ASSERT_EQ(r.schedule.size(), 1u);
  EXPECT_DOUBLE_EQ(r.schedule[0].start, 1.0);  // after its own setup
  EXPECT_DOUBLE_EQ(r.cct, 6.0);
  EXPECT_EQ(r.reconfigurations, 1);
}

TEST(Sunflow, DisjointFlowsOverlap) {
  // Not-all-stop: circuits on disjoint ports set up and run concurrently.
  Matrix d(2);
  d.at(0, 0) = 4.0;
  d.at(1, 1) = 4.0;
  const SunflowResult r = sunflow(d, 1.0);
  EXPECT_DOUBLE_EQ(r.cct, 5.0);
}

TEST(Sunflow, SamePortFlowsSerializeWithSetups) {
  Matrix d(2);
  d.at(0, 0) = 3.0;
  d.at(0, 1) = 2.0;  // same ingress
  const SunflowResult r = sunflow(d, 1.0);
  // LPT: 3 first ([1,4) after setup), then 2 ([5,7)).
  EXPECT_DOUBLE_EQ(r.cct, 7.0);
  EXPECT_EQ(r.reconfigurations, 2);
}

TEST(Sunflow, OneSlicePerFlowAndExactVolumes) {
  Rng rng(211);
  const Matrix d = testing::random_demand(rng, 6, 0.5, 0.5, 5.0);
  const SunflowResult r = sunflow(d, 0.1);
  EXPECT_EQ(static_cast<int>(r.schedule.size()), d.nnz());
  Matrix served(6);
  for (const FlowSlice& s : r.schedule) served.at(s.src, s.dst) += s.duration();
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) EXPECT_NEAR(served.at(i, j), d.at(i, j), 1e-9);
  }
}

TEST(Sunflow, ScheduleIsPortFeasible) {
  Rng rng(212);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix d = testing::random_demand(rng, 8, 0.6, 0.2, 4.0);
    const SunflowResult r = sunflow(d, 0.05);
    EXPECT_TRUE(is_port_feasible(r.schedule)) << "trial " << trial;
  }
}

TEST(Sunflow, WithinTwiceLowerBoundPlusOneCircuit) {
  // Huang et al. prove 2-approximation against the not-all-stop optimum;
  // with backfilling list scheduling the certifiable surrogate is
  // 2 * (rho + tau*delta) plus one circuit occupancy of fragmentation.
  Rng rng(213);
  const Time delta = 0.1;
  for (int trial = 0; trial < 15; ++trial) {
    const Matrix d = testing::random_demand(rng, 7, 0.7, 0.3, 6.0);
    if (d.nnz() == 0) continue;
    const SunflowResult r = sunflow(d, delta);
    const Time slack = delta + d.max_entry();
    EXPECT_LE(r.cct, 2.0 * single_coflow_lower_bound(d, delta) + slack + 1e-9)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace reco
