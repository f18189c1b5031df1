// Fault flight recorder: ring bounds, JSONL dump format, arming
// semantics, and the end-to-end dump-on-abort path — a permanent port
// failure drives the RecoveringController through a replan, which must
// trigger an armed dump containing the events leading up to it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sched/reco_sin.hpp"
#include "sim/fabric.hpp"
#include "sim/faults.hpp"

namespace reco::obs {
namespace {

/// Saves and restores the obs enable flag, and leaves the global flight
/// recorder disarmed and empty on both sides of a test.
class FlightGuard {
 public:
  FlightGuard() : was_enabled_(obs::enabled()) {
    flight_recorder().arm({});
    flight_recorder().clear();
  }
  ~FlightGuard() {
    flight_recorder().arm({});
    flight_recorder().clear();
    obs::set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_;
};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The ring's lines as an armed trigger dumps them, less the trailing
/// trigger marker.
std::vector<std::string> dumped_ring(FlightRecorder& rec, const std::string& path) {
  rec.arm(path);
  rec.trigger("test dump");
  std::vector<std::string> lines = lines_of(slurp(path));
  std::remove(path.c_str());
  EXPECT_FALSE(lines.empty());
  if (!lines.empty()) lines.pop_back();
  return lines;
}

TEST(FlightRecorder, RingIsBoundedAndKeepsTheNewestEvents) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record("tick", static_cast<double>(i), i);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_events(), 10u);
  const std::vector<std::string> lines = dumped_ring(rec, "flight_test_out/bounded.jsonl");
  ASSERT_EQ(lines.size(), 4u);
  // Oldest-to-newest: seqs 6..9 survive the wrap.
  for (std::size_t k = 0; k < lines.size(); ++k) {
    EXPECT_NE(lines[k].find("\"seq\": " + std::to_string(6 + k)), std::string::npos)
        << lines[k];
  }
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_events(), 10u);  // lifetime count survives clear
}

TEST(FlightRecorder, JsonlLinesAreStructurallySoundAndEscaped) {
  FlightRecorder rec(8);
  rec.record("admission", 1.5, 42, 3.25, "note with \"quotes\" and \\slashes\\");
  rec.record("plan", 2.0, 7, 12.0);
  const std::vector<std::string> lines = dumped_ring(rec, "flight_test_out/escaped.jsonl");
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
              std::count(line.begin(), line.end(), '}'));
  }
  EXPECT_NE(lines[0].find("\"kind\": \"admission\""), std::string::npos);
  EXPECT_NE(lines[0].find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(lines[0].find("\\\\slashes\\\\"), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\": 7"), std::string::npos);
  EXPECT_EQ(lines[1].find("\"note\""), std::string::npos);  // empty note omitted
}

TEST(FlightRecorder, UnarmedTriggerWritesNothing) {
  FlightRecorder rec(8);
  rec.record("plan", 0.0);
  EXPECT_FALSE(rec.armed());
  rec.trigger("nothing should happen");
  EXPECT_EQ(rec.dumps(), 0u);
}

TEST(FlightRecorder, ArmedTriggerDumpsRingPlusTriggerMarker) {
  FlightRecorder rec(8);
  const std::string path = "flight_test_out/incident.jsonl";
  rec.arm(path);
  EXPECT_TRUE(rec.armed());
  EXPECT_EQ(rec.armed_path(), path);
  rec.record("cut", 1.0, 3, 0.5);
  rec.record("replan", 2.0, 4);
  rec.trigger("first incident");
  EXPECT_EQ(rec.dumps(), 1u);
  {
    const std::vector<std::string> lines = lines_of(slurp(path));
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("\"kind\": \"cut\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"kind\": \"replan\""), std::string::npos);
    EXPECT_NE(lines[2].find("\"kind\": \"trigger\""), std::string::npos);
    EXPECT_NE(lines[2].find("first incident"), std::string::npos);
  }
  // A second trigger overwrites: the file holds the latest incident only.
  rec.record("port_fail", 3.0, 0);
  rec.trigger("second incident");
  EXPECT_EQ(rec.dumps(), 2u);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("second incident"), std::string::npos);
  EXPECT_EQ(text.find("first incident"), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"port_fail\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, DumpsOnRecoveryReplanUnderInjectedPortFault) {
  // End-to-end: obs enabled, recorder armed, permanent ingress-0 failure
  // at t=0.  The RecoveringController replans mid-schedule, which must
  // trigger a dump whose ring shows the port failure before the replan.
  FlightGuard guard;
  obs::set_enabled(true);
  const std::string path = "flight_test_out/abort.jsonl";
  flight_recorder().arm(path);
  const std::uint64_t dumps_before = flight_recorder().dumps();
  metrics().counter("obs.flight.dumps").reset();

  Matrix d(4);
  d.at(0, 1) = 2.0;  // dies with ingress 0
  d.at(0, 3) = 1.0;  // dies with ingress 0
  d.at(1, 2) = 3.0;
  d.at(2, 3) = 1.5;
  d.at(3, 0) = 2.5;
  d.at(2, 0) = 0.75;
  const Time delta = 0.05;
  sim::FaultConfig config;
  config.port_faults.push_back({0.0, 0, sim::PortSide::kIngress, -1.0});
  sim::RecoveringController controller(reco_sin(d, delta), delta);
  const sim::SimulationReport r = sim::simulate_single_coflow(controller, d, delta, config);
  EXPECT_GE(controller.replans(), 1);
  EXPECT_EQ(r.port_failures, 1);

  EXPECT_GE(flight_recorder().dumps(), dumps_before + 1);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"kind\": \"port_fail\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"recovery_replan\""), std::string::npos);
  EXPECT_NE(text.find("recovering-controller replan"), std::string::npos);
  EXPECT_DOUBLE_EQ(metrics().counter("obs.flight.dumps").value(),
                   static_cast<double>(flight_recorder().dumps() - dumps_before));
  std::remove(path.c_str());
}

TEST(FlightRecorder, DisabledObsRecordsNothingDuringFaultRun) {
  // The same faulty run with telemetry off must leave the recorder empty:
  // every record/trigger site is gated on obs::enabled().
  FlightGuard guard;
  obs::set_enabled(false);
  const std::uint64_t before = flight_recorder().total_events();
  const std::uint64_t dumps_before = flight_recorder().dumps();

  Matrix d(4);
  d.at(0, 1) = 2.0;
  d.at(1, 2) = 3.0;
  d.at(3, 0) = 2.5;
  const Time delta = 0.05;
  sim::FaultConfig config;
  config.port_faults.push_back({0.0, 0, sim::PortSide::kIngress, -1.0});
  sim::RecoveringController controller(reco_sin(d, delta), delta);
  (void)sim::simulate_single_coflow(controller, d, delta, config);

  EXPECT_EQ(flight_recorder().total_events(), before);
  EXPECT_EQ(flight_recorder().dumps(), dumps_before);
}

}  // namespace
}  // namespace reco::obs
