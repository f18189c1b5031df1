// Stage spans the library records on its own: a traced online plan must
// show the packet-schedule stage nested in online.plan, so an operator can
// see where a decision's time goes, and the packet-schedule span reports
// how many intervals its port timelines stored.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sched/online_core.hpp"
#include "sched/packet_scheduler.hpp"
#include "trace/generator.hpp"

namespace reco {
namespace {

struct WallSpan {
  double ts = 0.0;
  double dur = 0.0;
  double tid = 0.0;
};

/// Every event named `name` in a Chrome trace JSON dump, with the numbers
/// after its "ts", "dur" and "tid" keys.
std::vector<WallSpan> spans_named(const std::string& json, const std::string& name) {
  std::vector<WallSpan> out;
  const std::string head = "{\"name\":\"" + name + "\",";
  for (std::size_t at = json.find(head); at != std::string::npos; at = json.find(head, at + 1)) {
    const auto number = [&](const char* key) {
      const std::size_t p = json.find(key, at);
      return p == std::string::npos ? -1.0
                                    : std::strtod(json.c_str() + p + std::strlen(key), nullptr);
    };
    out.push_back({number("\"ts\":"), number("\"dur\":"), number("\"tid\":")});
  }
  return out;
}

TEST(PipelineSpans, OnlinePlanNestsPacketSchedule) {
  GeneratorOptions g;
  g.num_ports = 8;
  g.num_coflows = 6;
  g.seed = 5;
  OnlineCore core(OnlinePolicyKind::kEpochRecoMul);
  for (const Coflow& c : generate_workload(g)) core.submit(c);

  const bool was_enabled = obs::enabled();
  obs::reset();
  obs::set_enabled(true);
  core.plan(0.0);
  obs::set_enabled(was_enabled);
  std::ostringstream json;
  obs::tracer().write_chrome_json(json);
  obs::reset();

  const std::vector<WallSpan> plan = spans_named(json.str(), "online.plan");
  const std::vector<WallSpan> packet = spans_named(json.str(), "sched.packet_schedule");
  ASSERT_EQ(plan.size(), 1u) << json.str();
  ASSERT_EQ(packet.size(), 1u) << json.str();
  EXPECT_EQ(packet[0].tid, plan[0].tid);
  // Inside the parent's interval, up to the writer's 6 significant digits.
  const double slack = 1e-5 * (plan[0].ts + plan[0].dur) + 1e-3;
  EXPECT_GE(packet[0].ts + slack, plan[0].ts);
  EXPECT_LE(packet[0].ts + packet[0].dur, plan[0].ts + plan[0].dur + slack);
}

TEST(PipelineSpans, PacketScheduleReportsStoredIntervals) {
  // Two 2-long flows on disjoint ports, then a 1-long flow behind both on
  // ingress 0 and egress 0: each of the four port timelines stores one
  // interval.
  Coflow c;
  c.id = 0;
  c.demand = Matrix(2);
  c.demand.at(0, 1) = 2.0;
  c.demand.at(1, 0) = 2.0;
  c.demand.at(0, 0) = 1.0;

  const bool was_enabled = obs::enabled();
  obs::reset();
  obs::set_enabled(true);
  const SliceSchedule s = packet_schedule({c}, {0});
  obs::set_enabled(was_enabled);
  std::ostringstream json;
  obs::tracer().write_chrome_json(json);
  obs::reset();

  ASSERT_EQ(s.size(), 3u);
  const std::string dump = json.str();
  const std::size_t at = dump.find("{\"name\":\"sched.packet_schedule\",");
  ASSERT_NE(at, std::string::npos) << dump;
  const std::size_t key = dump.find("\"intervals\":", at);
  ASSERT_NE(key, std::string::npos) << dump;
  EXPECT_EQ(std::strtod(dump.c_str() + key + std::strlen("\"intervals\":"), nullptr), 4.0) << dump;
}

}  // namespace
}  // namespace reco
