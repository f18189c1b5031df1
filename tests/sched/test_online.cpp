// The online policies' behaviour, through `schedule_online`: the event-driven
// daemon over a materialized workload.
#include "sim/online_daemon.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/slice.hpp"
#include "ocs/slice_executor.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/multi_baselines.hpp"
#include "trace/generator.hpp"

namespace reco {
namespace {

using sim::OnlineScheduleResult;
using sim::schedule_online;

std::vector<Coflow> arriving_workload(std::uint64_t seed, int k = 20, int n = 16,
                                      Time mean_gap = 0.01) {
  GeneratorOptions o;
  o.num_ports = n;
  o.num_coflows = k;
  o.seed = seed;
  o.mean_interarrival = mean_gap;
  return generate_workload(o);
}

class OnlinePolicyTest : public ::testing::TestWithParam<OnlinePolicyKind> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, OnlinePolicyTest,
                         ::testing::Values(OnlinePolicyKind::kEpochRecoMul,
                                           OnlinePolicyKind::kFifoRecoSin,
                                           OnlinePolicyKind::kDrainReplanRecoMul),
                         [](const auto& info) {
                           switch (info.param) {
                             case OnlinePolicyKind::kEpochRecoMul: return "EpochRecoMul";
                             case OnlinePolicyKind::kFifoRecoSin: return "FifoRecoSin";
                             case OnlinePolicyKind::kDrainReplanRecoMul: return "DrainReplan";
                           }
                           return "Unknown";
                         });

TEST_P(OnlinePolicyTest, EmptyWorkload) {
  const OnlineScheduleResult r = schedule_online({}, GetParam());
  EXPECT_TRUE(r.schedule.empty());
  EXPECT_DOUBLE_EQ(r.total_weighted_cct, 0.0);
}

TEST_P(OnlinePolicyTest, ScheduleIsPortFeasible) {
  const auto coflows = arriving_workload(231);
  const OnlineScheduleResult r = schedule_online(coflows, GetParam());
  EXPECT_TRUE(is_port_feasible(r.schedule));
}

TEST_P(OnlinePolicyTest, NoFlowStartsBeforeItsCoflowArrives) {
  const auto coflows = arriving_workload(232);
  const OnlineScheduleResult r = schedule_online(coflows, GetParam());
  for (const FlowSlice& s : r.schedule) {
    EXPECT_GE(s.start, coflows[s.coflow].arrival - 1e-9);
  }
}

TEST_P(OnlinePolicyTest, CctAtLeastOwnBottleneck) {
  const auto coflows = arriving_workload(233);
  const OnlineScheduleResult r = schedule_online(coflows, GetParam());
  for (const Coflow& c : coflows) {
    EXPECT_GE(r.cct[c.id], c.demand.rho() - 1e-9) << "coflow " << c.id;
  }
}

TEST_P(OnlinePolicyTest, EveryCoflowFullyServed) {
  const auto coflows = arriving_workload(234, 10, 10);
  const OnlineScheduleResult r = schedule_online(coflows, GetParam());
  Matrix served(10);
  std::vector<Matrix> per_coflow(coflows.size(), Matrix(10));
  for (const FlowSlice& s : r.schedule) per_coflow[s.coflow].at(s.src, s.dst) += s.duration();
  for (const Coflow& c : coflows) {
    for (int i = 0; i < 10; ++i) {
      for (int j = 0; j < 10; ++j) {
        // Real-time slices include all-stop stretching for the epoch
        // policy, so served time can exceed the demand, never undershoot.
        EXPECT_GE(per_coflow[c.id].at(i, j), c.demand.at(i, j) - 1e-6)
            << "coflow " << c.id << " flow " << i << "->" << j;
      }
    }
  }
}

TEST(Online, AllArriveAtZeroIsOneEpoch) {
  GeneratorOptions o;
  o.num_ports = 12;
  o.num_coflows = 8;
  o.seed = 235;
  const auto coflows = generate_workload(o);  // mean_interarrival = 0
  const OnlineScheduleResult r = schedule_online(coflows, OnlinePolicyKind::kEpochRecoMul);
  EXPECT_EQ(r.epochs, 1);
}

TEST(Online, SpreadArrivalsUseMultipleEpochs) {
  const auto coflows = arriving_workload(236, 20, 16, 0.05);
  const OnlineScheduleResult r = schedule_online(coflows, OnlinePolicyKind::kEpochRecoMul);
  EXPECT_GT(r.epochs, 1);
}

TEST(Online, EpochBeatsFifoOnBurstyArrivals) {
  // Bursty arrivals: many coflows land together, so batching them through
  // Reco-Mul exploits concurrency while FIFO serializes.
  int wins = 0;
  for (int t = 0; t < 3; ++t) {
    const auto coflows = arriving_workload(240 + t, 24, 24, 0.001);
    const double epoch =
        schedule_online(coflows, OnlinePolicyKind::kEpochRecoMul).total_weighted_cct;
    const double fifo =
        schedule_online(coflows, OnlinePolicyKind::kFifoRecoSin).total_weighted_cct;
    if (epoch < fifo) ++wins;
  }
  EXPECT_GE(wins, 2);
}

TEST(Online, DrainReplanServesEveryCoflowAcrossCuts) {
  // Arrivals spread out enough that epochs get cut mid-flight.
  const auto coflows = arriving_workload(238, 16, 12, 0.02);
  const OnlineScheduleResult r = schedule_online(coflows, OnlinePolicyKind::kDrainReplanRecoMul);
  for (const Coflow& c : coflows) {
    EXPECT_GT(r.cct[c.id], 0.0) << "coflow " << c.id;
    EXPECT_GE(r.cct[c.id], c.demand.rho() - 1e-9);
  }
  EXPECT_GE(r.epochs, 2);
}

TEST(Online, DrainReplanRespondsFasterThanEpochOnLateArrival) {
  // One huge coflow at t=0, one mouse arriving mid-epoch: epoch batching
  // makes the mouse wait for the elephant; drain-replan cuts in earlier
  // (or at worst ties).
  GeneratorOptions g;
  g.num_ports = 10;
  g.num_coflows = 12;
  g.seed = 239;
  g.mean_interarrival = 0.03;
  const auto coflows = generate_workload(g);
  const OnlineScheduleResult epoch = schedule_online(coflows, OnlinePolicyKind::kEpochRecoMul);
  const OnlineScheduleResult reactive =
      schedule_online(coflows, OnlinePolicyKind::kDrainReplanRecoMul);
  // Not universally ordered, but both must be feasible and complete; the
  // reactive policy must never sit on arrivals for a whole epoch's worth
  // of extra makespan.
  EXPECT_TRUE(is_port_feasible(reactive.schedule));
  EXPECT_LE(reactive.total_weighted_cct, 3.0 * epoch.total_weighted_cct);
}

// S3 lock-in: the reported reconfiguration count must describe the emitted
// real-time schedule, not the internal pseudo schedule it was derived from.
TEST_P(OnlinePolicyTest, ReportedReconfigurationsMatchEmittedSchedule) {
  for (const Time gap : {0.0, 0.005, 0.02}) {
    const auto coflows = arriving_workload(251, 18, 12, gap);
    const OnlineScheduleResult r = schedule_online(coflows, GetParam());
    EXPECT_EQ(r.reconfigurations, count_reconfigurations(r.schedule)) << "gap " << gap;
  }
}

// S1 regression: a coflow whose arrival lands exactly on (or within eps of)
// an epoch boundary must be admitted cleanly and never yield a negative
// CCT.  Crafted so coflow B arrives at the precise end of A's solo epoch.
TEST_P(OnlinePolicyTest, BoundaryArrivalAdmittedWithNonNegativeCct) {
  Coflow a;
  a.id = 0;
  a.demand = Matrix(2);
  a.demand.at(0, 1) = 0.01;
  const OnlineScheduleResult solo = schedule_online({a}, GetParam());
  const Time epoch_end = makespan(solo.schedule);
  ASSERT_GT(epoch_end, 0.0);

  for (const double nudge : {-0.5 * kTimeEps, 0.0, 0.5 * kTimeEps}) {
    Coflow b;
    b.id = 1;
    b.demand = Matrix(2);
    b.demand.at(1, 0) = 0.01;
    b.arrival = epoch_end + nudge;
    const OnlineScheduleResult r = schedule_online({a, b}, GetParam());
    EXPECT_GE(r.cct[0], 0.0) << "nudge " << nudge;
    EXPECT_GE(r.cct[1], 0.0) << "nudge " << nudge;
    EXPECT_GE(r.cct[1], b.demand.rho() - 1e-9) << "nudge " << nudge;
    EXPECT_TRUE(is_port_feasible(r.schedule)) << "nudge " << nudge;
    // No slice of B may start before it arrived.
    for (const FlowSlice& s : r.schedule) {
      if (s.coflow == 1) {
        EXPECT_GE(s.start, b.arrival - 1e-9) << "nudge " << nudge;
      }
    }
  }
}

// S1 regression: arrivals spaced within eps of each other land in one batch
// without any of them picking up a negative CCT from the eps-tolerant
// admission boundary.
TEST(Online, EpsSpacedArrivalsBatchTogetherWithNonNegativeCct) {
  auto coflows = arriving_workload(252, 6, 8, 0.0);
  for (std::size_t k = 0; k < coflows.size(); ++k) {
    // All six land inside the [clock, clock + eps] admission window of the
    // very first batch (last offset 0.75*eps).
    coflows[k].arrival = static_cast<Time>(k) * 0.15 * kTimeEps;
  }
  const OnlineScheduleResult r = schedule_online(coflows, OnlinePolicyKind::kEpochRecoMul);
  EXPECT_EQ(r.epochs, 1);  // all admitted inside the eps window
  for (const Coflow& c : coflows) EXPECT_GE(r.cct[c.id], 0.0);
}

// S4: with every arrival at t = 0 the online problem *is* the offline one,
// and each policy must degenerate to its offline counterpart exactly.
TEST(Online, EpochAtTimeZeroDegeneratesToOfflineRecoMul) {
  GeneratorOptions o;
  o.num_ports = 12;
  o.num_coflows = 10;
  o.seed = 253;
  const auto coflows = generate_workload(o);
  for (const OnlinePolicyKind kind :
       {OnlinePolicyKind::kEpochRecoMul, OnlinePolicyKind::kDrainReplanRecoMul}) {
    const OnlineScheduleResult online = schedule_online(coflows, kind);
    const MultiScheduleResult offline = reco_mul_pipeline(coflows, 100e-6, 4.0);
    const std::string policy = "policy " + std::to_string(static_cast<int>(kind));
    ASSERT_EQ(online.cct.size(), offline.cct.size());
    for (std::size_t k = 0; k < coflows.size(); ++k) {
      EXPECT_DOUBLE_EQ(online.cct[k], offline.cct[k]) << policy << " coflow " << k;
    }
    EXPECT_NEAR(online.total_weighted_cct, offline.total_weighted_cct, 1e-9) << policy;
    EXPECT_EQ(online.reconfigurations, offline.reconfigurations) << policy;
    EXPECT_EQ(online.epochs, 1) << policy;
  }
}

TEST(Online, FifoAtTimeZeroDegeneratesToSequentialRecoSin) {
  GeneratorOptions o;
  o.num_ports = 10;
  o.num_coflows = 8;
  o.seed = 254;
  const auto coflows = generate_workload(o);
  const OnlineScheduleResult online = schedule_online(coflows, OnlinePolicyKind::kFifoRecoSin);
  std::vector<int> order(coflows.size());
  std::iota(order.begin(), order.end(), 0);  // FIFO = arrival (= id) order
  const MultiScheduleResult offline =
      sequential_multi_schedule(coflows, order, 100e-6, SingleCoflowAlgo::kRecoSin);
  for (std::size_t k = 0; k < coflows.size(); ++k) {
    EXPECT_DOUBLE_EQ(online.cct[k], offline.cct[k]) << "coflow " << k;
  }
  EXPECT_NEAR(online.total_weighted_cct, offline.total_weighted_cct, 1e-9);
}

// S4: schedule_online replays byte-identically across thread counts (the
// streaming daemon variant lives in sim/test_online_daemon.cpp).
TEST_P(OnlinePolicyTest, DigestIdenticalAcrossThreadCounts) {
  const auto coflows = arriving_workload(255, 24, 12, 0.01);
  runtime::set_thread_count(1);
  const OnlineScheduleResult serial = schedule_online(coflows, GetParam());
  runtime::set_thread_count(4);
  const OnlineScheduleResult parallel = schedule_online(coflows, GetParam());
  runtime::set_thread_count(0);
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_NE(serial.digest, 0u);
  ASSERT_EQ(serial.cct.size(), parallel.cct.size());
  for (std::size_t k = 0; k < serial.cct.size(); ++k) {
    EXPECT_DOUBLE_EQ(serial.cct[k], parallel.cct[k]);
  }
}

TEST(Online, WeightedCctConsistentWithPerCoflow) {
  const auto coflows = arriving_workload(237, 12, 12);
  const OnlineScheduleResult r = schedule_online(coflows, OnlinePolicyKind::kFifoRecoSin);
  double expected = 0.0;
  for (const Coflow& c : coflows) expected += c.weight * r.cct[c.id];
  EXPECT_NEAR(r.total_weighted_cct, expected, 1e-9);
}

}  // namespace
}  // namespace reco
