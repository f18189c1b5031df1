#include "trace/generator.hpp"

#include <gtest/gtest.h>

#include "trace/trace_stats.hpp"

namespace reco {
namespace {

GeneratorOptions small_options() {
  GeneratorOptions o;
  o.num_ports = 40;
  o.num_coflows = 120;
  o.seed = 5;
  return o;
}

TEST(Generator, ProducesRequestedCount) {
  const auto coflows = generate_workload(small_options());
  EXPECT_EQ(coflows.size(), 120u);
  for (std::size_t k = 0; k < coflows.size(); ++k) {
    EXPECT_EQ(coflows[k].id, static_cast<int>(k));
    EXPECT_EQ(coflows[k].demand.n(), 40);
    EXPECT_GT(coflows[k].demand.nnz(), 0);
  }
}

TEST(Generator, DeterministicForSameSeed) {
  const auto a = generate_workload(small_options());
  const auto b = generate_workload(small_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].demand, b[k].demand);
    EXPECT_DOUBLE_EQ(a[k].weight, b[k].weight);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorOptions o = small_options();
  const auto a = generate_workload(o);
  o.seed = 6;
  const auto b = generate_workload(o);
  int identical = 0;
  for (std::size_t k = 0; k < a.size(); ++k) identical += a[k].demand == b[k].demand;
  EXPECT_LT(identical, 5);
}

TEST(Generator, RespectsOpticalThreshold) {
  const GeneratorOptions o = small_options();
  const auto coflows = generate_workload(o);
  const double min_demand = o.c_threshold * o.delta;
  for (const Coflow& c : coflows) {
    const double mn = c.demand.min_nonzero();
    EXPECT_GE(mn, min_demand - 1e-12);
  }
}

TEST(Generator, WeightsInUnitIntervalByDefault) {
  const auto coflows = generate_workload(small_options());
  for (const Coflow& c : coflows) {
    EXPECT_GE(c.weight, 0.0);
    EXPECT_LT(c.weight, 1.0);
  }
}

TEST(Generator, ModeMixApproximatesTableII) {
  GeneratorOptions o;
  o.num_ports = 150;
  o.num_coflows = 2000;  // large sample to stabilize proportions
  o.seed = 99;
  const WorkloadStats s = compute_stats(generate_workload(o));
  EXPECT_NEAR(s.mode_count_percent[0], 23.38, 4.0);  // S2S
  EXPECT_NEAR(s.mode_count_percent[1], 9.89, 3.0);   // S2M
  EXPECT_NEAR(s.mode_count_percent[2], 40.11, 4.0);  // M2S
  EXPECT_NEAR(s.mode_count_percent[3], 26.62, 4.0);  // M2M
  // M2M dominates bytes.
  EXPECT_GT(s.mode_size_percent[3], 95.0);
}

TEST(Generator, DensityMixApproximatesTableI) {
  GeneratorOptions o;
  o.num_ports = 150;
  o.num_coflows = 2000;
  o.seed = 77;
  const WorkloadStats s = compute_stats(generate_workload(o));
  EXPECT_NEAR(s.density_percent[0], 86.31, 5.0);  // sparse
  EXPECT_NEAR(s.density_percent[1], 5.13, 4.0);   // normal
  EXPECT_NEAR(s.density_percent[2], 8.56, 4.0);   // dense
}

TEST(Generator, RejectsTinyFabric) {
  GeneratorOptions o;
  o.num_ports = 1;
  EXPECT_THROW(generate_workload(o), std::invalid_argument);
}

TEST(Generator, DefaultMatchesPaperScale) {
  const GeneratorOptions o;
  EXPECT_EQ(o.num_ports, 150);
  EXPECT_EQ(o.num_coflows, 526);
  EXPECT_DOUBLE_EQ(o.delta, 100e-6);
}

}  // namespace
}  // namespace reco
