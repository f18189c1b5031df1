// Cross-representation consistency: the same schedule measured through
// different lenses (slice schedule, per-coflow CCTs, reconfiguration
// counters, DES replay) must tell one story.
#include <gtest/gtest.h>

#include "core/slice.hpp"
#include "ocs/slice_executor.hpp"
#include "oracles/fabric_replay.hpp"
#include "oracles/schedule_checks.hpp"
#include "sched/multi_baselines.hpp"
#include "trace/generator.hpp"

namespace reco {
namespace {

std::vector<Coflow> workload(std::uint64_t seed) {
  GeneratorOptions g;
  g.num_ports = 16;
  g.num_coflows = 20;
  g.seed = seed;
  return generate_workload(g);
}

TEST(Consistency, PipelineCctMatchesScheduleCompletionTimes) {
  const auto coflows = workload(811);
  for (const MultiScheduleResult& r :
       {reco_mul_pipeline(coflows, 100e-6, 4.0), sebf_solstice(coflows, 100e-6)}) {
    const auto recomputed = completion_times(r.schedule, static_cast<int>(coflows.size()));
    ASSERT_EQ(recomputed.size(), r.cct.size());
    for (std::size_t k = 0; k < r.cct.size(); ++k) {
      EXPECT_NEAR(r.cct[k], recomputed[k], 1e-9) << "coflow " << k;
    }
  }
}

TEST(Consistency, SequentialReconfigsMatchSliceBatches) {
  // One establishment per start batch: the counter kept by the sequential
  // pipeline must equal the batch count recomputed from its slices.
  const auto coflows = workload(812);
  const MultiScheduleResult r = sebf_solstice(coflows, 100e-6);
  EXPECT_EQ(r.reconfigurations, count_reconfigurations(r.schedule));
}

TEST(Consistency, TotalWeightedCctMatchesManualSum) {
  const auto coflows = workload(813);
  const MultiScheduleResult r = reco_mul_pipeline(coflows, 100e-6, 4.0);
  double manual = 0.0;
  for (const Coflow& c : coflows) manual += c.weight * r.cct[c.id];
  EXPECT_NEAR(r.total_weighted_cct, manual, 1e-9);
}

TEST(Consistency, DesSliceReplayAgreesWithAnalyticAnalysis) {
  const auto coflows = workload(814);
  const MultiScheduleResult r = reco_mul_pipeline(coflows, 100e-6, 4.0);
  const oracle::SliceReplayReport des =
      oracle::simulate_slice_schedule(r.schedule, 16, static_cast<int>(coflows.size()));
  EXPECT_EQ(des.port_violations, 0);
  const oracle::MultiExecutionStats analytic =
      oracle::analyze_schedule(r.schedule, static_cast<int>(coflows.size()));
  EXPECT_NEAR(des.makespan, analytic.makespan, 1e-9);
  for (std::size_t k = 0; k < coflows.size(); ++k) {
    EXPECT_NEAR(des.cct[k], analytic.cct[k], 1e-9) << "coflow " << k;
  }
}

}  // namespace
}  // namespace reco
