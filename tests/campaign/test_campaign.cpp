// Monte-Carlo reliability campaigns: config validation, replication
// purity, aggregate structure, and the acceptance property — a campaign
// killed mid-run and resumed from its checkpoint reports byte-identically
// to an uninterrupted one, at every thread count.
#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/snapshot.hpp"
#include "runtime/thread_pool.hpp"

namespace reco::campaign {
namespace {

/// Small but non-trivial campaign: 3 policies x 2 fault points x 6 reps.
CampaignConfig small_config() {
  CampaignConfig c;
  c.ports = 8;
  c.coflows = 3;
  c.seed = 7;
  c.replications = 6;
  c.policies = {RecoveryPolicy::kReplan, RecoveryPolicy::kWaitForRepair,
                RecoveryPolicy::kHybrid};
  c.grid = {{0.05, 0.01}, {0.02, 0.005}};
  c.bootstrap.resamples = 100;  // keep the aggregate stage fast
  return c;
}

std::string report_json(const CampaignRunner& runner) {
  std::ostringstream out;
  write_report_json(runner.report(), out);
  return out.str();
}

TEST(CampaignConfig, PolicyNamesRoundTrip) {
  EXPECT_EQ(parse_policy("replan"), RecoveryPolicy::kReplan);
  EXPECT_EQ(parse_policy("wait"), RecoveryPolicy::kWaitForRepair);
  EXPECT_EQ(parse_policy("hybrid"), RecoveryPolicy::kHybrid);
  for (const RecoveryPolicy p : {RecoveryPolicy::kReplan, RecoveryPolicy::kWaitForRepair,
                                 RecoveryPolicy::kHybrid}) {
    EXPECT_EQ(parse_policy(policy_name(p)), p);
  }
  EXPECT_THROW(parse_policy("yolo"), std::invalid_argument);
  EXPECT_THROW(parse_policy(""), std::invalid_argument);
}

TEST(CampaignConfig, ValidationRejectsUnrunnableConfigs) {
  EXPECT_NO_THROW(validate_campaign_config(small_config()));
  {
    CampaignConfig c = small_config();
    c.policies.clear();
    EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  }
  {
    CampaignConfig c = small_config();
    c.grid.clear();
    EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  }
  {
    CampaignConfig c = small_config();
    c.replications = 0;
    EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  }
  {
    CampaignConfig c = small_config();
    c.grid[0].mtbf = -1.0;
    EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  }
  {
    CampaignConfig c = small_config();
    c.setup_timeout_probability = 1.5;
    EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
  }
}

TEST(Campaign, ReplicationsArePureFunctionsOfTheIndex) {
  const CampaignRunner runner(small_config());
  for (const std::size_t index : {0u, 5u, 17u, 35u}) {
    const ReplicationResult a = runner.run_one(index);
    const ReplicationResult b = runner.run_one(index);
    EXPECT_EQ(a.digest, b.digest) << "index " << index;
    EXPECT_EQ(a.cell, b.cell);
    EXPECT_EQ(a.rep, b.rep);
    EXPECT_EQ(a.cct, b.cct);
    EXPECT_EQ(a.stranded, b.stranded);
  }
}

TEST(Campaign, ReportStructureAndInvariants) {
  CampaignRunner runner(small_config());
  EXPECT_EQ(runner.total(), 36u);
  EXPECT_EQ(runner.run(), 36u);
  EXPECT_TRUE(runner.finished());
  const CampaignReport report = runner.report();
  EXPECT_EQ(report.total, 36u);
  EXPECT_EQ(report.completed, 36u);
  ASSERT_EQ(report.replications.size(), 36u);
  ASSERT_EQ(report.cells.size(), 6u);

  std::uint64_t anomalies = 0;
  for (std::size_t i = 0; i < report.replications.size(); ++i) {
    const ReplicationResult& r = report.replications[i];
    EXPECT_EQ(static_cast<std::size_t>(r.cell) * 6u + static_cast<std::size_t>(r.rep), i)
        << "index order broken at " << i;
    EXPECT_GT(r.demand_total, 0.0);
    EXPECT_GE(r.delivered_fraction, 0.0);
    EXPECT_LE(r.delivered_fraction, 1.0 + 1e-12);
    EXPECT_GE(r.stranded, 0.0);
    EXPECT_GE(r.degraded_time, 0.0);
    // Conservation: delivered + stranded spans the demand.
    EXPECT_NEAR(r.delivered_fraction + r.stranded / r.demand_total, 1.0, 1e-6);
    if (!r.satisfied) ++anomalies;
  }
  EXPECT_EQ(report.anomalies, anomalies);

  std::uint64_t cell_completed = 0;
  std::uint64_t cell_anomalies = 0;
  for (const CellSummary& cell : report.cells) {
    cell_completed += cell.completed;
    cell_anomalies += cell.anomalies;
    EXPECT_EQ(cell.completed, 6u);
    for (const DistributionSummary* s :
         {&cell.stranded, &cell.degraded_time, &cell.recovery_latency,
          &cell.delivered_fraction, &cell.cct}) {
      EXPECT_EQ(s->count, 6u);
      EXPECT_LE(s->mean_lo, s->mean);
      EXPECT_LE(s->mean, s->mean_hi);
      EXPECT_LE(s->p50_lo, s->p50);
      EXPECT_LE(s->p50, s->p50_hi);
      EXPECT_LE(s->min, s->max);
    }
    EXPECT_GT(cell.cct.mean, 0.0);
  }
  EXPECT_EQ(cell_completed, report.completed);
  EXPECT_EQ(cell_anomalies, report.anomalies);
}

TEST(Campaign, PairedSeedsShareWorkloadsAcrossCells) {
  // Cell pairing: replication r of every cell runs the same workload seed,
  // so demand_total depends only on r — the whole point of paired
  // comparisons across policies and fault intensities.
  CampaignRunner runner(small_config());
  runner.run();
  const CampaignReport report = runner.report();
  for (int rep = 0; rep < 6; ++rep) {
    const double expected = report.replications[static_cast<std::size_t>(rep)].demand_total;
    for (int cell = 1; cell < 6; ++cell) {
      EXPECT_EQ(report.replications[static_cast<std::size_t>(cell * 6 + rep)].demand_total,
                expected)
          << "cell " << cell << " rep " << rep;
    }
  }
}

TEST(Campaign, ByteIdenticalAcrossThreadCounts) {
  runtime::set_thread_count(1);
  CampaignRunner serial(small_config());
  serial.run();
  const std::string serial_json = report_json(serial);
  runtime::set_thread_count(4);
  CampaignRunner parallel(small_config());
  parallel.run();
  const std::string parallel_json = report_json(parallel);
  runtime::set_thread_count(0);  // restore default
  EXPECT_EQ(serial.report().digest, parallel.report().digest);
  EXPECT_EQ(serial_json, parallel_json);
}

TEST(Campaign, CiSmokeConfigDigestIsPinned) {
  // CI's campaign-smoke config.  The other campaign tests compare runs with
  // each other; this one pins the bytes, so a planner or simulator change
  // that moves any replication fails here, at either thread count.
  CampaignConfig c;
  c.ports = 12;
  c.coflows = 4;
  c.seed = 7;
  c.replications = 16;
  c.policies = {RecoveryPolicy::kReplan, RecoveryPolicy::kWaitForRepair,
                RecoveryPolicy::kHybrid};
  c.grid = {{0.05, 0.01}, {0.02, 0.01}};
  c.bootstrap.resamples = 100;  // the digest covers the replications only
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    CampaignRunner runner(c);
    runner.run();
    EXPECT_EQ(runner.report().digest, 0x169ae83ca5e1a5e1ull) << threads << " threads";
  }
  runtime::set_thread_count(0);  // restore default
}

TEST(Campaign, CheckpointResumeMatchesUninterruptedRun) {
  CampaignRunner uninterrupted(small_config());
  uninterrupted.run();
  const std::string expected_json = report_json(uninterrupted);

  // Kill after 13 of 36 replications, checkpoint, resume in a fresh runner
  // at a different thread count, finish, and compare byte for byte.
  runtime::set_thread_count(2);
  CampaignRunner first(small_config());
  EXPECT_EQ(first.run(13), 13u);
  EXPECT_FALSE(first.finished());
  std::ostringstream checkpoint;
  first.save_checkpoint(checkpoint);

  runtime::set_thread_count(3);
  CampaignRunner resumed(small_config());
  std::istringstream in(checkpoint.str());
  resumed.load_checkpoint(in);
  EXPECT_EQ(resumed.completed(), 13u);
  resumed.run();
  runtime::set_thread_count(0);
  EXPECT_TRUE(resumed.finished());
  EXPECT_EQ(resumed.report().digest, uninterrupted.report().digest);
  EXPECT_EQ(report_json(resumed), expected_json);

  // CSV writers see the same replication set.
  std::ostringstream csv_a;
  std::ostringstream csv_b;
  write_replications_csv(uninterrupted.report(), csv_a);
  write_replications_csv(resumed.report(), csv_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
}

TEST(Campaign, CheckpointRejectsWrongConfigAndDamage) {
  CampaignRunner runner(small_config());
  runner.run(5);
  std::ostringstream checkpoint;
  runner.save_checkpoint(checkpoint);
  const std::string blob = checkpoint.str();

  const auto load_into = [](const CampaignConfig& config, const std::string& bytes) {
    CampaignRunner fresh(config);
    std::istringstream in(bytes);
    fresh.load_checkpoint(in);
  };

  // Any result-affecting config drift must be rejected...
  {
    CampaignConfig other = small_config();
    other.seed = 8;
    EXPECT_THROW(load_into(other, blob), std::runtime_error);
  }
  {
    CampaignConfig other = small_config();
    other.grid[1].mttr = 0.006;
    EXPECT_THROW(load_into(other, blob), std::runtime_error);
  }
  {
    CampaignConfig other = small_config();
    other.policies = {RecoveryPolicy::kReplan, RecoveryPolicy::kHybrid,
                      RecoveryPolicy::kWaitForRepair};
    EXPECT_THROW(load_into(other, blob), std::runtime_error);
  }
  // ...but cosmetic settings (flight dump destination) are not part of the
  // fingerprint: a resumed campaign may redirect its incident dumps.
  {
    CampaignConfig other = small_config();
    other.flight_prefix = "/tmp/elsewhere-";
    EXPECT_NO_THROW(load_into(other, blob));
  }
  // Damaged streams fail loudly.
  std::string corrupted = blob;
  corrupted[corrupted.size() - 3] ^= 0x10;
  EXPECT_THROW(load_into(small_config(), corrupted), std::runtime_error);
  EXPECT_THROW(load_into(small_config(), blob.substr(0, 30)), std::runtime_error);
  EXPECT_THROW(load_into(small_config(), "not a campaign checkpoint"), std::runtime_error);
}

TEST(Campaign, CheckpointVerifiesEachReplicationDigest) {
  // A checkpoint whose replication fields changed under an intact file
  // digest must not resume: the report chains the per-replication digests,
  // so it would print the honest campaign digest over different numbers.
  CampaignRunner runner(small_config());
  runner.run(5);
  std::ostringstream checkpoint;
  runner.save_checkpoint(checkpoint);
  const std::string blob = checkpoint.str();

  // After the 24-byte header and the fingerprint and count (16 bytes), each
  // replication takes 89 bytes: cell and rep, six doubles (cct first), six
  // counts (replans first), the satisfied flag and the digest.
  constexpr std::size_t kRecord = 4 + 4 + 6 * 8 + 6 * 4 + 1 + 8;
  const std::size_t cct_at = 24 + 16 + 2 * kRecord + 8;
  const std::size_t replans_at = 24 + 16 + 2 * kRecord + 8 + 6 * 8;
  const auto patched = [&](std::size_t at, std::uint64_t v, int width) {
    std::string bytes = blob;
    for (int b = 0; b < width; ++b) bytes[at + b] = static_cast<char>((v >> (8 * b)) & 0xffu);
    const std::uint64_t digest = fnv1a64(bytes.data() + 24, bytes.size() - 24);
    for (int b = 0; b < 8; ++b) bytes[16 + b] = static_cast<char>((digest >> (8 * b)) & 0xffu);
    return bytes;
  };
  const auto rejection = [&](const std::string& bytes) {
    CampaignRunner fresh(small_config());
    std::istringstream in(bytes);
    try {
      fresh.load_checkpoint(in);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const double cct = runner.report().replications[2].cct;
  ASSERT_GT(cct, 0.0);
  const std::string which = "campaign checkpoint: replication 2 ";
  EXPECT_NE(rejection(patched(cct_at, std::bit_cast<std::uint64_t>(
                                          std::numeric_limits<double>::quiet_NaN()), 8))
                .find(which + "has a field that is not finite and non-negative"),
            std::string::npos);
  EXPECT_NE(rejection(patched(cct_at, std::bit_cast<std::uint64_t>(cct * 2.0), 8))
                .find(which + "digest does not match its fields"),
            std::string::npos);
  EXPECT_NE(rejection(patched(replans_at, 0xffffffffu, 4)).find(which + "has a negative count"),
            std::string::npos);
  EXPECT_EQ(rejection(blob), "");
}

TEST(Campaign, PoliciesActuallyDiffer) {
  // Sanity that the sweep sweeps: under repairable faults the immediate-
  // replan policy replans more often than wait-for-repair over the same
  // paired workloads (if these coincided, the policy axis would be dead).
  CampaignConfig config = small_config();
  config.replications = 8;
  CampaignRunner runner(config);
  runner.run();
  const CampaignReport report = runner.report();
  double replan_rate = 0.0;
  double wait_rate = 0.0;
  for (const CellSummary& cell : report.cells) {
    if (cell.policy == RecoveryPolicy::kReplan) replan_rate += cell.replans_mean;
    if (cell.policy == RecoveryPolicy::kWaitForRepair) wait_rate += cell.replans_mean;
  }
  EXPECT_GT(replan_rate, wait_rate);
}

}  // namespace
}  // namespace reco::campaign
