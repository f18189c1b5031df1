#include "campaign/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/matrix.hpp"
#include "core/snapshot.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "sim/controller.hpp"
#include "sim/fabric.hpp"
#include "sim/faults.hpp"
#include "trace/generator.hpp"

namespace reco::campaign {

namespace {

// "RCMP" little-endian: Reco CaMPaign checkpoint.
constexpr std::uint32_t kCampaignMagic = 0x504d4352u;
constexpr std::uint32_t kCampaignVersion = 1;

// Effectively-infinite grace window for kWaitForRepair: the controller
// replans only when the old plan has no surviving useful circuit left.
constexpr Time kWaitForever = 1e30;

/// Flight dumps written per campaign at most.
constexpr int kMaxFlightDumps = 8;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ splitmix64(b));
}

/// The fields a replication's digest covers, in the order the digest and
/// the checkpoint both write them.
void put_replication_fields(SnapshotWriter& w, const ReplicationResult& r) {
  w.put_i32(r.cell);
  w.put_i32(r.rep);
  w.put_f64(r.cct);
  w.put_f64(r.demand_total);
  w.put_f64(r.stranded);
  w.put_f64(r.degraded_time);
  w.put_f64(r.delivered_fraction);
  w.put_f64(r.recovery_latency);
  w.put_i32(r.replans);
  w.put_i32(r.port_failures);
  w.put_i32(r.port_repairs);
  w.put_i32(r.recoveries);
  w.put_i32(r.setup_failures);
  w.put_i32(r.partial_setups);
  w.put_bool(r.satisfied);
}

/// FNV-1a over the replication's fields: what run_one stamps and what the
/// checkpoint loader recomputes.
std::uint64_t replication_digest(const ReplicationResult& r) {
  SnapshotWriter w;
  put_replication_fields(w, r);
  return fnv1a64(w.payload().data(), w.payload().size());
}

/// %.17g — the shortest form that round-trips an IEEE double exactly.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void json_summary(std::ostream& out, const char* name, const DistributionSummary& s,
                  bool trailing_comma) {
  out << "      \"" << name << "\": {\"count\": " << s.count << ", \"mean\": " << fmt(s.mean)
      << ", \"mean_lo\": " << fmt(s.mean_lo) << ", \"mean_hi\": " << fmt(s.mean_hi)
      << ", \"p50\": " << fmt(s.p50) << ", \"p50_lo\": " << fmt(s.p50_lo)
      << ", \"p50_hi\": " << fmt(s.p50_hi) << ", \"p99\": " << fmt(s.p99)
      << ", \"p99_lo\": " << fmt(s.p99_lo) << ", \"p99_hi\": " << fmt(s.p99_hi)
      << ", \"min\": " << fmt(s.min) << ", \"max\": " << fmt(s.max) << "}"
      << (trailing_comma ? "," : "") << "\n";
}

void csv_summary_header(std::ostream& out, const char* name) {
  out << "," << name << "_mean," << name << "_mean_lo," << name << "_mean_hi," << name
      << "_p50," << name << "_p99," << name << "_p99_lo," << name << "_p99_hi";
}

void csv_summary_row(std::ostream& out, const DistributionSummary& s) {
  out << "," << fmt(s.mean) << "," << fmt(s.mean_lo) << "," << fmt(s.mean_hi) << ","
      << fmt(s.p50) << "," << fmt(s.p99) << "," << fmt(s.p99_lo) << "," << fmt(s.p99_hi);
}

}  // namespace

const char* policy_name(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kReplan:
      return "replan";
    case RecoveryPolicy::kWaitForRepair:
      return "wait";
    case RecoveryPolicy::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

RecoveryPolicy parse_policy(const std::string& name) {
  if (name == "replan") return RecoveryPolicy::kReplan;
  if (name == "wait") return RecoveryPolicy::kWaitForRepair;
  if (name == "hybrid") return RecoveryPolicy::kHybrid;
  throw std::invalid_argument("unknown recovery policy '" + name +
                              "' (expected replan, wait, or hybrid)");
}

void validate_campaign_config(const CampaignConfig& config) {
  const auto fail = [](const std::string& what) { throw std::invalid_argument("campaign: " + what); };
  if (config.ports <= 0) fail("ports must be positive");
  if (config.coflows <= 0) fail("coflows must be positive");
  if (config.delta <= 0.0) fail("delta must be positive");
  if (config.c_threshold <= 0.0) fail("c_threshold must be positive");
  if (config.replications <= 0) fail("replications must be positive");
  if (config.policies.empty()) fail("at least one recovery policy is required");
  if (config.grid.empty()) fail("at least one MTBF/MTTR grid point is required");
  for (const FaultPoint& p : config.grid) {
    if (p.mtbf < 0.0 || p.mttr < 0.0) fail("MTBF/MTTR must be non-negative");
  }
  if (config.hybrid_deadline < 0.0) fail("hybrid_deadline must be non-negative");
  if (config.setup_timeout_probability < 0.0 || config.setup_timeout_probability >= 1.0) {
    fail("setup_timeout_probability must be in [0, 1)");
  }
  if (config.crosspoint_failure_probability < 0.0 ||
      config.crosspoint_failure_probability >= 1.0) {
    fail("crosspoint_failure_probability must be in [0, 1)");
  }
}

CampaignRunner::CampaignRunner(CampaignConfig config) : config_(std::move(config)) {
  validate_campaign_config(config_);
}

std::size_t CampaignRunner::total() const {
  return config_.policies.size() * config_.grid.size() *
         static_cast<std::size_t>(config_.replications);
}

ReplicationResult CampaignRunner::run_one(std::size_t index) const {
  const auto reps = static_cast<std::size_t>(config_.replications);
  const std::size_t cell = index / reps;
  const std::size_t rep = index % reps;
  const std::size_t grid_index = cell % config_.grid.size();
  const RecoveryPolicy policy = config_.policies[cell / config_.grid.size()];
  const FaultPoint fault = config_.grid[grid_index];

  // Paired design: the workload seed depends only on `rep`, so every cell
  // runs the identical workloads and policy/fault deltas are within-pair;
  // the fault seed is shared across *policies* (same grid point, same rep)
  // so policies face the identical fault timeline.
  GeneratorOptions gen;
  gen.num_ports = config_.ports;
  gen.num_coflows = config_.coflows;
  gen.delta = config_.delta;
  gen.c_threshold = config_.c_threshold;
  gen.seed = mix(config_.seed, rep);
  const std::vector<Coflow> workload = generate_workload(gen);
  Matrix demand(config_.ports);
  for (const Coflow& c : workload) demand += c.demand;

  sim::FaultConfig faults;
  faults.port_mtbf = fault.mtbf;
  faults.port_mttr = fault.mttr;
  faults.setup_timeout_probability = config_.setup_timeout_probability;
  faults.crosspoint_failure_probability = config_.crosspoint_failure_probability;
  faults.seed = mix(config_.seed ^ 0xfa017c0defa017ull, mix(grid_index, rep));

  Time deadline = 0.0;
  if (policy == RecoveryPolicy::kWaitForRepair) deadline = kWaitForever;
  if (policy == RecoveryPolicy::kHybrid) deadline = config_.hybrid_deadline;
  // The initial plan is pulled as the fabric runs it: a fault usually
  // replaces it after a few assignments, and the rest is never peeled.
  sim::RecoveringController controller(
      std::make_unique<sim::RecoSinController>(demand, config_.delta), config_.delta, deadline);
  const sim::SimulationReport sim =
      sim::simulate_single_coflow(controller, demand, config_.delta, faults);

  ReplicationResult r;
  r.cell = static_cast<int>(cell);
  r.rep = static_cast<int>(rep);
  r.cct = sim.cct;
  r.demand_total = demand.total();
  r.stranded = sim.stranded_demand;
  r.degraded_time = sim.degraded_time;
  r.delivered_fraction =
      r.demand_total > 0.0 ? sim.delivered_demand / r.demand_total : 1.0;
  r.recovery_latency =
      sim.recoveries > 0 ? sim.degraded_time / static_cast<double>(sim.recoveries) : 0.0;
  r.replans = controller.replans();
  r.port_failures = sim.port_failures;
  r.port_repairs = sim.port_repairs;
  r.recoveries = sim.recoveries;
  r.setup_failures = sim.setup_failures;
  r.partial_setups = sim.partial_setups;
  r.satisfied = sim.satisfied;
  r.digest = replication_digest(r);
  return r;
}

std::size_t CampaignRunner::run(std::size_t max_new) {
  const std::size_t first = results_.size();
  std::size_t remaining = total() - first;
  if (max_new > 0) remaining = std::min(remaining, max_new);
  if (remaining == 0) return completed();

  std::vector<ReplicationResult> wave(remaining);
  runtime::parallel_for(static_cast<int>(remaining),
                        [&](int k) { wave[static_cast<std::size_t>(k)] = run_one(first + k); });
  for (const ReplicationResult& r : wave) note_completed(r);
  return completed();
}

void CampaignRunner::note_completed(const ReplicationResult& result) {
  results_.push_back(result);
  if (obs::enabled()) {
    obs::metrics().counter("campaign.replications").inc();
    if (!result.satisfied) obs::metrics().counter("campaign.anomalies").inc();
  }
  if (!result.satisfied && !config_.flight_prefix.empty() &&
      flight_dumps_ < kMaxFlightDumps) {
    dump_flight(result);
  }
}

void CampaignRunner::dump_flight(const ReplicationResult& result) {
  // Replications run with telemetry cold (results never depend on obs);
  // to capture the incident timeline we replay the anomalous replication
  // — it is a pure function of its index — with the flight recorder armed.
  const std::size_t index = static_cast<std::size_t>(result.cell) *
                                static_cast<std::size_t>(config_.replications) +
                            static_cast<std::size_t>(result.rep);
  const std::string path = config_.flight_prefix + "rep" + std::to_string(index) + ".jsonl";
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::flight_recorder().clear();
  obs::flight_recorder().arm(path);
  (void)run_one(index);
  obs::flight_recorder().trigger("campaign anomaly replay");
  obs::flight_recorder().arm(std::string());
  obs::flight_recorder().clear();
  obs::set_enabled(was_enabled);
  ++flight_dumps_;
  if (obs::enabled()) obs::metrics().counter("campaign.flight_dumps").inc();
}

std::uint64_t CampaignRunner::config_fingerprint() const {
  // Canonical serialization of every result-affecting field (flight-dump
  // settings deliberately excluded: they change side outputs, not results).
  SnapshotWriter w;
  w.put_i32(config_.ports);
  w.put_i32(config_.coflows);
  w.put_f64(config_.delta);
  w.put_f64(config_.c_threshold);
  w.put_u64(config_.seed);
  w.put_i32(config_.replications);
  w.put_u64(config_.policies.size());
  for (const RecoveryPolicy p : config_.policies) w.put_u8(static_cast<std::uint8_t>(p));
  w.put_u64(config_.grid.size());
  for (const FaultPoint& p : config_.grid) {
    w.put_f64(p.mtbf);
    w.put_f64(p.mttr);
  }
  w.put_f64(config_.hybrid_deadline);
  w.put_f64(config_.setup_timeout_probability);
  w.put_f64(config_.crosspoint_failure_probability);
  w.put_i32(config_.bootstrap.resamples);
  w.put_f64(config_.bootstrap.confidence);
  w.put_u64(config_.bootstrap.seed);
  return fnv1a64(w.payload().data(), w.payload().size());
}

void CampaignRunner::save_checkpoint(std::ostream& out) const {
  SnapshotWriter w;
  w.put_u64(config_fingerprint());
  w.put_u64(results_.size());
  for (const ReplicationResult& r : results_) {
    put_replication_fields(w, r);
    w.put_u64(r.digest);
  }
  w.finish(out, kCampaignMagic, kCampaignVersion);
}

void CampaignRunner::load_checkpoint(std::istream& in) {
  SnapshotReader r(in, kCampaignMagic, kCampaignVersion, "campaign checkpoint");
  if (r.get_u64() != config_fingerprint()) {
    throw std::runtime_error(
        "campaign checkpoint was written with a different configuration");
  }
  const std::uint64_t completed = r.get_u64();
  if (completed > total()) {
    throw std::runtime_error("campaign checkpoint: completed count exceeds the campaign size");
  }
  std::vector<ReplicationResult> loaded;
  loaded.reserve(completed);
  const auto reps = static_cast<std::size_t>(config_.replications);
  for (std::uint64_t k = 0; k < completed; ++k) {
    ReplicationResult rr;
    rr.cell = r.get_i32();
    rr.rep = r.get_i32();
    if (rr.cell != static_cast<int>(k / reps) || rr.rep != static_cast<int>(k % reps)) {
      throw std::runtime_error("campaign checkpoint: replication order is corrupted");
    }
    rr.cct = r.get_f64();
    rr.demand_total = r.get_f64();
    rr.stranded = r.get_f64();
    rr.degraded_time = r.get_f64();
    rr.delivered_fraction = r.get_f64();
    rr.recovery_latency = r.get_f64();
    rr.replans = r.get_i32();
    rr.port_failures = r.get_i32();
    rr.port_repairs = r.get_i32();
    rr.recoveries = r.get_i32();
    rr.setup_failures = r.get_i32();
    rr.partial_setups = r.get_i32();
    rr.satisfied = r.get_bool();
    rr.digest = r.get_u64();
    const auto rejected = [k](const char* what) {
      return std::runtime_error("campaign checkpoint: replication " + std::to_string(k) + " " +
                                what);
    };
    for (const double v : {rr.cct, rr.demand_total, rr.stranded, rr.degraded_time,
                           rr.delivered_fraction, rr.recovery_latency}) {
      if (!std::isfinite(v) || v < 0.0) {
        throw rejected("has a field that is not finite and non-negative");
      }
    }
    for (const int v : {rr.replans, rr.port_failures, rr.port_repairs, rr.recoveries,
                        rr.setup_failures, rr.partial_setups}) {
      if (v < 0) throw rejected("has a negative count");
    }
    if (rr.digest != replication_digest(rr)) throw rejected("digest does not match its fields");
    loaded.push_back(rr);
  }
  r.expect_end();
  results_ = std::move(loaded);
}

CampaignReport CampaignRunner::report() const {
  CampaignReport rep;
  rep.total = total();
  rep.completed = results_.size();
  rep.replications = results_;

  std::uint64_t digest = kFnvOffsetBasis;
  for (const ReplicationResult& r : results_) {
    unsigned char bytes[8];
    for (int b = 0; b < 8; ++b) {
      bytes[b] = static_cast<unsigned char>((r.digest >> (8 * b)) & 0xffu);
    }
    digest = fnv1a64(bytes, sizeof(bytes), digest);
    if (!r.satisfied) ++rep.anomalies;
  }
  rep.digest = digest;

  const auto reps = static_cast<std::size_t>(config_.replications);
  const std::size_t n_cells = config_.policies.size() * config_.grid.size();
  rep.cells.resize(n_cells);
  std::vector<double> stranded;
  std::vector<double> degraded;
  std::vector<double> latency;
  std::vector<double> delivered;
  std::vector<double> cct;
  for (std::size_t c = 0; c < n_cells; ++c) {
    CellSummary& cell = rep.cells[c];
    cell.policy = config_.policies[c / config_.grid.size()];
    cell.fault = config_.grid[c % config_.grid.size()];
    // Results are a cell-major prefix, so cell c's completed replications
    // occupy [c*reps, min(completed, (c+1)*reps)).
    const std::size_t begin = std::min(rep.completed, static_cast<std::uint64_t>(c * reps));
    const std::size_t end =
        std::min(rep.completed, static_cast<std::uint64_t>((c + 1) * reps));
    stranded.clear();
    degraded.clear();
    latency.clear();
    delivered.clear();
    cct.clear();
    double replans_sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const ReplicationResult& r = results_[i];
      stranded.push_back(r.stranded);
      degraded.push_back(r.degraded_time);
      latency.push_back(r.recovery_latency);
      delivered.push_back(r.delivered_fraction);
      cct.push_back(r.cct);
      replans_sum += r.replans;
      if (!r.satisfied) ++cell.anomalies;
    }
    cell.completed = end - begin;
    cell.replans_mean =
        cell.completed > 0 ? replans_sum / static_cast<double>(cell.completed) : 0.0;
    BootstrapOptions bo = config_.bootstrap;
    bo.seed = mix(config_.bootstrap.seed, c);
    cell.stranded = summarize_distribution(stranded, bo);
    cell.degraded_time = summarize_distribution(degraded, bo);
    cell.recovery_latency = summarize_distribution(latency, bo);
    cell.delivered_fraction = summarize_distribution(delivered, bo);
    cell.cct = summarize_distribution(cct, bo);
  }
  return rep;
}

void write_report_json(const CampaignReport& report, std::ostream& out) {
  out << "{\n";
  out << "  \"total\": " << report.total << ",\n";
  out << "  \"completed\": " << report.completed << ",\n";
  out << "  \"anomalies\": " << report.anomalies << ",\n";
  out << "  \"digest\": \"" << report.digest << "\",\n";
  out << "  \"cells\": [\n";
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    const CellSummary& cell = report.cells[c];
    out << "    {\n";
    out << "      \"policy\": \"" << policy_name(cell.policy) << "\",\n";
    out << "      \"mtbf\": " << fmt(cell.fault.mtbf) << ",\n";
    out << "      \"mttr\": " << fmt(cell.fault.mttr) << ",\n";
    out << "      \"completed\": " << cell.completed << ",\n";
    out << "      \"anomalies\": " << cell.anomalies << ",\n";
    out << "      \"replans_mean\": " << fmt(cell.replans_mean) << ",\n";
    json_summary(out, "stranded", cell.stranded, true);
    json_summary(out, "degraded_time", cell.degraded_time, true);
    json_summary(out, "recovery_latency", cell.recovery_latency, true);
    json_summary(out, "delivered_fraction", cell.delivered_fraction, true);
    json_summary(out, "cct", cell.cct, false);
    out << "    }" << (c + 1 < report.cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

void write_replications_csv(const CampaignReport& report, std::ostream& out) {
  out << "index,cell,rep,cct,demand_total,stranded,degraded_time,delivered_fraction,"
         "recovery_latency,replans,port_failures,port_repairs,recoveries,setup_failures,"
         "partial_setups,satisfied,digest\n";
  for (std::size_t i = 0; i < report.replications.size(); ++i) {
    const ReplicationResult& r = report.replications[i];
    out << i << "," << r.cell << "," << r.rep << "," << fmt(r.cct) << ","
        << fmt(r.demand_total) << "," << fmt(r.stranded) << "," << fmt(r.degraded_time) << ","
        << fmt(r.delivered_fraction) << "," << fmt(r.recovery_latency) << "," << r.replans
        << "," << r.port_failures << "," << r.port_repairs << "," << r.recoveries << ","
        << r.setup_failures << "," << r.partial_setups << "," << (r.satisfied ? 1 : 0) << ","
        << r.digest << "\n";
  }
}

void write_cells_csv(const CampaignReport& report, std::ostream& out) {
  out << "policy,mtbf,mttr,completed,anomalies,replans_mean";
  csv_summary_header(out, "stranded");
  csv_summary_header(out, "degraded_time");
  csv_summary_header(out, "recovery_latency");
  csv_summary_header(out, "delivered_fraction");
  csv_summary_header(out, "cct");
  out << "\n";
  for (const CellSummary& cell : report.cells) {
    out << policy_name(cell.policy) << "," << fmt(cell.fault.mtbf) << ","
        << fmt(cell.fault.mttr) << "," << cell.completed << "," << cell.anomalies << ","
        << fmt(cell.replans_mean);
    csv_summary_row(out, cell.stranded);
    csv_summary_row(out, cell.degraded_time);
    csv_summary_row(out, cell.recovery_latency);
    csv_summary_row(out, cell.delivered_fraction);
    csv_summary_row(out, cell.cct);
    out << "\n";
  }
}

}  // namespace reco::campaign
