#include "sim/multi_fabric.hpp"

#include <gtest/gtest.h>

#include "testing_util.hpp"
#include "trace/generator.hpp"
#include "trace/rng.hpp"

namespace reco::sim {
namespace {

constexpr Time kDelta = 0.02;

Coflow make_coflow(int id, const Matrix& d, Time arrival = 0.0) {
  Coflow c;
  c.id = id;
  c.arrival = arrival;
  c.demand = d;
  return c;
}

TEST(MultiFabric, EmptyWorkload) {
  GreedyPriorityController ctrl(kDelta, GreedyPriorityController::Priority::kSmallestResidualFirst);
  const MultiFabricReport r = simulate_multi_coflow(ctrl, {}, kDelta);
  EXPECT_TRUE(r.all_served);
  EXPECT_EQ(r.reconfigurations, 0);
}

TEST(MultiFabric, SingleFlowCoflow) {
  Matrix d(2);
  d.at(0, 1) = 0.5;
  GreedyPriorityController ctrl(kDelta, GreedyPriorityController::Priority::kSmallestResidualFirst);
  const MultiFabricReport r = simulate_multi_coflow(ctrl, {make_coflow(0, d)}, kDelta);
  EXPECT_TRUE(r.all_served);
  EXPECT_NEAR(r.cct[0], kDelta + 0.5, 1e-9);
  EXPECT_EQ(r.reconfigurations, 1);
}

TEST(MultiFabric, DisjointCoflowsShareOneEstablishment) {
  Matrix a(2);
  a.at(0, 0) = 0.4;
  Matrix b(2);
  b.at(1, 1) = 0.4;
  GreedyPriorityController ctrl(kDelta, GreedyPriorityController::Priority::kSmallestResidualFirst);
  const MultiFabricReport r =
      simulate_multi_coflow(ctrl, {make_coflow(0, a), make_coflow(1, b)}, kDelta);
  EXPECT_TRUE(r.all_served);
  // Both flows fit one matching: a single reconfiguration serves both.
  EXPECT_EQ(r.reconfigurations, 1);
  EXPECT_NEAR(r.cct[0], kDelta + 0.4, 1e-9);
  EXPECT_NEAR(r.cct[1], kDelta + 0.4, 1e-9);
}

TEST(MultiFabric, SmallestResidualFirstOrdersCompletions) {
  Matrix small(2);
  small.at(0, 0) = 0.2;
  Matrix big(2);
  big.at(0, 0) = 2.0;  // same port: must serialize
  GreedyPriorityController ctrl(kDelta, GreedyPriorityController::Priority::kSmallestResidualFirst);
  const MultiFabricReport r =
      simulate_multi_coflow(ctrl, {make_coflow(0, big), make_coflow(1, small)}, kDelta);
  EXPECT_TRUE(r.all_served);
  EXPECT_LT(r.cct[1], r.cct[0]);  // SEBF-like: small jumps ahead
}

TEST(MultiFabric, ArrivalsAreHonoured) {
  Matrix d(2);
  d.at(0, 1) = 0.3;
  GreedyPriorityController ctrl(kDelta, GreedyPriorityController::Priority::kSmallestResidualFirst);
  const MultiFabricReport r =
      simulate_multi_coflow(ctrl, {make_coflow(0, d, /*arrival=*/1.0)}, kDelta);
  EXPECT_TRUE(r.all_served);
  // CCT measured from arrival: idle wait before t=1 is not charged.
  EXPECT_NEAR(r.cct[0], kDelta + 0.3, 1e-9);
  EXPECT_GE(r.makespan, 1.0 + kDelta + 0.3 - 1e-9);
}

TEST(MultiFabric, ServesGeneratedWorkloadCompletely) {
  GeneratorOptions g;
  g.num_ports = 12;
  g.num_coflows = 15;
  g.seed = 601;
  g.mean_interarrival = 0.01;
  const auto coflows = generate_workload(g);
  for (auto priority : {GreedyPriorityController::Priority::kSmallestResidualFirst,
                        GreedyPriorityController::Priority::kLeastServedFirst}) {
    GreedyPriorityController ctrl(g.delta, priority);
    const MultiFabricReport r = simulate_multi_coflow(ctrl, coflows, g.delta);
    EXPECT_TRUE(r.all_served);
    for (const Coflow& c : coflows) {
      EXPECT_GE(r.cct[c.id], c.demand.rho() - 1e-9) << "coflow " << c.id;
    }
  }
}

TEST(MultiFabric, HoldToLargestNeedsFewerEstablishments) {
  GeneratorOptions g;
  g.num_ports = 10;
  g.num_coflows = 10;
  g.seed = 602;
  const auto coflows = generate_workload(g);
  GreedyPriorityController tight(g.delta,
                                 GreedyPriorityController::Priority::kSmallestResidualFirst,
                                 /*hold_to_largest=*/false);
  GreedyPriorityController wide(g.delta,
                                GreedyPriorityController::Priority::kSmallestResidualFirst,
                                /*hold_to_largest=*/true);
  const MultiFabricReport a = simulate_multi_coflow(tight, coflows, g.delta);
  const MultiFabricReport b = simulate_multi_coflow(wide, coflows, g.delta);
  EXPECT_TRUE(a.all_served);
  EXPECT_TRUE(b.all_served);
  EXPECT_LE(b.reconfigurations, a.reconfigurations);
}

TEST(MultiFabric, StoppingControllerReportsUnserved) {
  class StopImmediately final : public MultiCoflowController {
   public:
    std::optional<MultiAssignment> next_assignment(const FabricView&) override {
      return std::nullopt;
    }
  };
  Matrix d(2);
  d.at(0, 0) = 1.0;
  StopImmediately ctrl;
  const MultiFabricReport r = simulate_multi_coflow(ctrl, {make_coflow(0, d)}, kDelta);
  EXPECT_FALSE(r.all_served);
}

TEST(MultiFabric, SpinningControllerIsCutOff) {
  // Returns a dead assignment forever: the guard must terminate the run.
  class Spinner final : public MultiCoflowController {
   public:
    std::optional<MultiAssignment> next_assignment(const FabricView&) override {
      MultiAssignment a;
      a.circuits.push_back({0, 0});
      a.coflow_of.push_back(0);
      a.duration = 1.0;
      return a;
    }
  };
  Matrix d(2);
  d.at(1, 1) = 1.0;  // the spinner never serves this entry
  Spinner ctrl;
  const MultiFabricReport r = simulate_multi_coflow(ctrl, {make_coflow(0, d)}, kDelta);
  EXPECT_FALSE(r.all_served);
}

}  // namespace
}  // namespace reco::sim
