// Monte-Carlo reliability campaigns: sweep {recovery policy, fault
// intensity, seed} over N seeded replications of the fault-injected OCS
// simulator and aggregate availability metrics into distributions with
// bootstrap confidence intervals (docs/RELIABILITY.md).
//
// One *replication* = one synthetic workload (trace/generator) aggregated
// into a demand matrix, planned by Reco-Sin, executed on the event-driven
// fabric under a RecoveringController and a seeded FaultInjector.  One
// *cell* = (recovery policy, MTBF/MTTR point); every cell runs the same
// `replications` paired workload seeds, so policy comparisons difference
// out workload noise.  Replications are pure functions of (config, index):
// they run in any order on the runtime thread pool and the campaign
// report — every metric, every CI bound, the aggregate digest — is
// byte-identical across thread counts, reruns, and checkpoint/resume.
//
// Checkpoint/restart: completed replications persist to a versioned
// snapshot ("RCMP"); resuming verifies a config fingerprint and continues
// exactly where the campaign stopped.  Because replications are pure, a
// resumed campaign's report is byte-identical to an uninterrupted one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "stats/bootstrap.hpp"

namespace reco::campaign {

/// What the controller does when ports fail mid-run.
enum class RecoveryPolicy : std::uint8_t {
  kReplan = 0,         ///< immediate recovery replan on every fault/repair
  kWaitForRepair = 1,  ///< ride the old plan's surviving circuits; replan
                       ///< only when it has no useful circuit left
  kHybrid = 2,         ///< wait up to `hybrid_deadline`, then replan
};

const char* policy_name(RecoveryPolicy policy);
/// Parses "replan" / "wait" / "hybrid"; throws std::invalid_argument.
RecoveryPolicy parse_policy(const std::string& name);

/// One fault-intensity grid point: per-port exponential MTBF/MTTR seconds.
struct FaultPoint {
  double mtbf = 0.0;  ///< 0 disables random port failures
  double mttr = 0.0;  ///< 0: failures are permanent
};

struct CampaignConfig {
  // Workload shape (trace/generator): one matrix per replication.
  int ports = 24;
  int coflows = 8;
  Time delta = 100e-6;
  double c_threshold = 4.0;

  std::uint64_t seed = 1;   ///< campaign master seed
  int replications = 64;    ///< per cell (paired across cells)

  std::vector<RecoveryPolicy> policies;  ///< sweep axis 1
  std::vector<FaultPoint> grid;          ///< sweep axis 2
  Time hybrid_deadline = 0.02;           ///< kHybrid grace window (seconds)

  // Extra fault channels applied uniformly to every cell.
  double setup_timeout_probability = 0.0;
  double crosspoint_failure_probability = 0.0;

  BootstrapOptions bootstrap;  ///< CI parameters for the aggregates

  /// Non-empty: replay each anomalous replication (terminated with demand
  /// stranded) with the flight recorder armed and dump the incident ring
  /// to "<flight_prefix>rep<index>.jsonl", for the first 8 anomalies.
  std::string flight_prefix;
};

/// Throws std::invalid_argument on an unrunnable config (no policies, no
/// grid points, non-positive replications/ports/coflows/delta, negative
/// fault parameters).
void validate_campaign_config(const CampaignConfig& config);

/// One replication's availability metrics (a pure function of the config
/// and the replication index).
struct ReplicationResult {
  int cell = 0;  ///< policy-major: cell = policy_index * |grid| + grid_index
  int rep = 0;
  double cct = 0.0;
  double demand_total = 0.0;
  double stranded = 0.0;            ///< residual demand at termination
  double degraded_time = 0.0;       ///< sim time with >= 1 port down
  double delivered_fraction = 1.0;  ///< delivered / demand_total
  double recovery_latency = 0.0;    ///< degraded_time per recovery incident
  int replans = 0;
  int port_failures = 0;
  int port_repairs = 0;
  int recoveries = 0;
  int setup_failures = 0;
  int partial_setups = 0;
  bool satisfied = false;           ///< false = anomaly (demand stranded)
  std::uint64_t digest = 0;         ///< FNV-1a over the fields above
};

/// Per-cell aggregates over the cell's completed replications.
struct CellSummary {
  RecoveryPolicy policy = RecoveryPolicy::kReplan;
  FaultPoint fault;
  std::uint64_t completed = 0;
  std::uint64_t anomalies = 0;  ///< unsatisfied replications
  DistributionSummary stranded;
  DistributionSummary degraded_time;
  DistributionSummary recovery_latency;
  DistributionSummary delivered_fraction;
  DistributionSummary cct;
  double replans_mean = 0.0;
};

struct CampaignReport {
  std::uint64_t total = 0;      ///< cells * replications
  std::uint64_t completed = 0;
  std::uint64_t anomalies = 0;
  std::uint64_t digest = 0;     ///< FNV-1a over replication digests, index order
  std::vector<ReplicationResult> replications;  ///< index order, completed prefix
  std::vector<CellSummary> cells;
};

class CampaignRunner {
 public:
  /// Validates the config (throws std::invalid_argument).
  explicit CampaignRunner(CampaignConfig config);

  const CampaignConfig& config() const { return config_; }
  std::size_t total() const;
  std::size_t completed() const { return results_.size(); }
  bool finished() const { return completed() == total(); }

  /// Run up to `max_new` further replications (0 = all remaining) as one
  /// parallel wave over the runtime thread pool; returns completed().
  /// Replication `i` always produces the same result regardless of wave
  /// boundaries, thread count, or a checkpoint/resume in between.
  std::size_t run(std::size_t max_new = 0);

  /// One replication, by flat index in [0, total()).  Pure and const: safe
  /// to call from any thread.
  ReplicationResult run_one(std::size_t index) const;

  /// Aggregate everything completed so far into a report (cells with no
  /// completed replications yet carry all-zero summaries).
  CampaignReport report() const;

  /// Checkpoint = config fingerprint + the completed replication prefix.
  /// load_checkpoint requires a runner built from the identical config
  /// (fingerprint-verified; throws std::runtime_error on mismatch or on a
  /// corrupted/truncated/version-mismatched stream) and replaces any
  /// progress this runner had.
  void save_checkpoint(std::ostream& out) const;
  void load_checkpoint(std::istream& in);
  std::uint64_t config_fingerprint() const;

 private:
  void note_completed(const ReplicationResult& result);
  void dump_flight(const ReplicationResult& result);

  CampaignConfig config_;
  std::vector<ReplicationResult> results_;  ///< completed prefix, index order
  int flight_dumps_ = 0;
};

/// Report writers.  Doubles print with %.17g so emitted numbers round-trip
/// bit-exactly; the JSON mirrors the full report, the CSVs are one row per
/// replication / per cell.
void write_report_json(const CampaignReport& report, std::ostream& out);
void write_replications_csv(const CampaignReport& report, std::ostream& out);
void write_cells_csv(const CampaignReport& report, std::ostream& out);

}  // namespace reco::campaign
