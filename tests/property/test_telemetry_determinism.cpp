// Telemetry must be write-only: collection reads pipeline state and
// accumulates numbers, never feeds a decision.  These tests pin that
// contract by running the same scheduling problems with obs enabled and
// disabled and comparing the serialized outputs byte for byte.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/coflow.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"
#include "sched/multi_baselines.hpp"
#include "sched/reco_sin.hpp"
#include "sched/solstice.hpp"
#include "sim/online_daemon.hpp"
#include "stats/csv.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

/// Guard: forces telemetry to a known state and restores + wipes on exit,
/// so a failing assertion can't leak an enabled tracer into other tests.
class ObsState {
 public:
  explicit ObsState(bool on) : was_(obs::enabled()) { obs::set_enabled(on); }
  ~ObsState() {
    obs::set_enabled(was_);
    obs::reset();
  }

 private:
  bool was_;
};

std::string slices_csv(const SliceSchedule& schedule) {
  std::ostringstream out;
  write_slices_csv(out, schedule);
  return out.str();
}

std::string circuits_txt(const CircuitSchedule& schedule) {
  std::ostringstream out;
  out.precision(17);
  for (const CircuitAssignment& a : schedule.assignments) {
    out << a.duration << ':';
    for (const Circuit& c : a.circuits) out << ' ' << c.in << "->" << c.out;
    out << '\n';
  }
  return out.str();
}

TEST(TelemetryDeterminism, SingleCoflowSchedulesAreByteIdentical) {
  Rng rng(41);
  for (const int n : {8, 24}) {
    const Matrix demand = testing::random_demand(rng, n, 0.3, 0.5, 10.0);
    std::string off_sin, off_sol;
    {
      ObsState obs_off(false);
      off_sin = circuits_txt(reco_sin(demand, 1e-4));
      off_sol = circuits_txt(solstice(demand));
    }
    std::string on_sin, on_sol;
    {
      ObsState obs_on(true);
      on_sin = circuits_txt(reco_sin(demand, 1e-4));
      on_sol = circuits_txt(solstice(demand));
      EXPECT_GT(obs::tracer().size(), 0u) << "telemetry did not record anything";
    }
    EXPECT_EQ(off_sin, on_sin) << "reco_sin diverged with telemetry on, n=" << n;
    EXPECT_EQ(off_sol, on_sol) << "solstice diverged with telemetry on, n=" << n;
  }
}

TEST(TelemetryDeterminism, RecoMulPipelineIsByteIdentical) {
  Rng rng(42);
  const std::vector<Coflow> coflows = testing::random_workload(rng, 12, 10, 1e-4, 4.0);
  std::string off_csv;
  {
    ObsState obs_off(false);
    off_csv = slices_csv(reco_mul_pipeline(coflows, 1e-4, 4.0).schedule);
  }
  std::string on_csv;
  {
    ObsState obs_on(true);
    on_csv = slices_csv(reco_mul_pipeline(coflows, 1e-4, 4.0).schedule);
    EXPECT_GT(obs::tracer().size(), 0u) << "telemetry did not record anything";
    EXPECT_GT(obs::metrics().counter("reco_mul.calls").value(), 0.0);
  }
  EXPECT_EQ(off_csv, on_csv) << "reco-mul schedule diverged with telemetry on";
}

// PR-8 live telemetry: running the daemon with the sim-time sampler
// ticking as daemon events AND a live HTTP exporter scraping the
// registry must not move a single byte of the schedule, the digest, the
// makespan, or the reported event count.
TEST(TelemetryDeterminism, OnlineDaemonIsByteIdenticalUnderLiveSampling) {
  Rng rng(44);
  std::vector<Coflow> coflows = testing::random_workload(rng, 10, 8, 1e-4, 4.0);
  for (std::size_t i = 0; i < coflows.size(); ++i) {
    coflows[i].arrival = 2e-3 * static_cast<double>(i);
  }

  struct RunResult {
    std::string slices;
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    Time makespan = 0.0;
  };
  const auto run = [&](bool live) {
    sim::OnlineDaemonOptions options;
    options.core.record_schedule = true;
    options.sample_every = live ? 1e-3 : 0.0;
    std::optional<obs::MetricsHttpServer> server;
    if (live) {
      server.emplace();
      server->start(0);  // scrape target up for the whole run
    }
    sim::OnlineDaemon daemon(OnlinePolicyKind::kDrainReplanRecoMul, options);
    sim::VectorSource source(coflows);
    const sim::OnlineDaemonReport report = daemon.run(source);
    RunResult result;
    result.slices = slices_csv(daemon.core().schedule());
    result.digest = report.digest;
    result.events = report.events;
    result.makespan = report.makespan;
    if (server) server->stop();
    return result;
  };

  RunResult off;
  {
    ObsState obs_off(false);
    off = run(false);
  }
  RunResult on;
  {
    ObsState obs_on(true);
    obs::sim_sampler().clear();
    on = run(true);
    EXPECT_GT(obs::sim_sampler().size(), 0u) << "sim sampler never ticked";
    obs::sim_sampler().clear();
  }
  EXPECT_EQ(off.slices, on.slices) << "daemon schedule diverged under live sampling";
  EXPECT_EQ(off.digest, on.digest);
  EXPECT_EQ(off.events, on.events) << "sampler ticks leaked into the event count";
  EXPECT_DOUBLE_EQ(off.makespan, on.makespan);
}

TEST(TelemetryDeterminism, SequentialMultiIsByteIdentical) {
  Rng rng(43);
  const std::vector<Coflow> coflows = testing::random_workload(rng, 8, 12, 1e-4, 4.0);
  std::string off_csv;
  {
    ObsState obs_off(false);
    off_csv = slices_csv(sebf_solstice(coflows, 1e-4).schedule);
  }
  std::string on_csv;
  {
    ObsState obs_on(true);
    on_csv = slices_csv(sebf_solstice(coflows, 1e-4).schedule);
  }
  EXPECT_EQ(off_csv, on_csv) << "sebf-solstice schedule diverged with telemetry on";
}

}  // namespace
}  // namespace reco
