#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace reco::sim {
namespace {

TEST(FaultValidation, RejectsRetryProbabilityOfOne) {
  // retry_probability >= 1 made the pre-cap retry loop spin forever; it is
  // now rejected outright.
  FaultConfig c;
  c.retry_probability = 1.0;
  EXPECT_THROW(validate_fault_config(c), std::invalid_argument);
  c.retry_probability = 1.5;
  EXPECT_THROW(validate_fault_config(c), std::invalid_argument);
  c.retry_probability = 0.999;
  EXPECT_NO_THROW(validate_fault_config(c));
}

TEST(FaultValidation, RejectsNegativeOrNonFiniteJitter) {
  FaultConfig c;
  c.jitter_fraction = -0.1;
  EXPECT_THROW(validate_fault_config(c), std::invalid_argument);
  c.jitter_fraction = std::nan("");
  EXPECT_THROW(validate_fault_config(c), std::invalid_argument);
}

TEST(FaultValidation, RejectsNonPositiveAttemptBudget) {
  FaultConfig c;
  c.max_attempts = 0;
  EXPECT_THROW(validate_fault_config(c), std::invalid_argument);
}

TEST(FaultValidation, RejectsBadConfig) {
  {
    FaultConfig c;
    c.setup_timeout_probability = 1.5;
    EXPECT_THROW(validate_fault_config(c), std::invalid_argument);
  }
  {
    FaultConfig c;
    c.crosspoint_failure_probability = -0.25;
    EXPECT_THROW(validate_fault_config(c), std::invalid_argument);
  }
  {
    FaultConfig c;
    c.port_mtbf = -1.0;
    EXPECT_THROW(validate_fault_config(c), std::invalid_argument);
  }
  {
    FaultConfig c;
    c.port_faults.push_back({-1.0, 0, PortSide::kBoth, -1.0});
    EXPECT_THROW(validate_fault_config(c), std::invalid_argument);
  }
  // The injector constructor validates too.
  FaultConfig bad;
  bad.retry_probability = 2.0;
  EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
}

TEST(FaultInjector, DefaultConfigIsIdeal) {
  FaultInjector injector(FaultConfig{});
  injector.bind_ports(8);
  EXPECT_TRUE(injector.advance_to(1e9).empty());
  EXPECT_FALSE(injector.next_transition().has_value());
  for (int attempt = 0; attempt < 4; ++attempt) {
    const SetupOutcome o = injector.sample_setup(0.01, {{0, 1}, {2, 3}});
    EXPECT_DOUBLE_EQ(o.setup_time, 0.01);  // exactly delta: no draws at all
    EXPECT_EQ(o.attempts, 1);
    EXPECT_TRUE(o.established);
    ASSERT_EQ(o.established_circuits.size(), 2u);
    EXPECT_TRUE(o.failed_circuits.empty());
  }
}

TEST(FaultInjector, ScriptedFaultAndRepairTransitionsInOrder) {
  FaultConfig config;
  config.port_faults.push_back({2.0, 1, PortSide::kIngress, 3.0});  // repaired at 5.0
  config.port_faults.push_back({1.0, 2, PortSide::kBoth, -1.0});    // permanent
  FaultInjector injector(config);
  injector.bind_ports(4);

  EXPECT_TRUE(injector.advance_to(0.5).empty());
  ASSERT_TRUE(injector.next_transition().has_value());
  EXPECT_NEAR(*injector.next_transition(), 1.0, 1e-12);

  const auto first = injector.advance_to(2.5);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_NEAR(first[0].at, 1.0, 1e-12);
  EXPECT_EQ(first[0].port, 2);
  EXPECT_FALSE(first[0].up);
  EXPECT_EQ(first[0].side, PortSide::kBoth);
  EXPECT_NEAR(first[1].at, 2.0, 1e-12);
  EXPECT_EQ(first[1].port, 1);
  EXPECT_EQ(first[1].side, PortSide::kIngress);  // ingress-side fault only
  EXPECT_FALSE(first[1].up);

  ASSERT_TRUE(injector.next_repair().has_value());
  EXPECT_NEAR(*injector.next_repair(), 5.0, 1e-12);
  const auto second = injector.advance_to(10.0);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NEAR(second[0].at, 5.0, 1e-12);
  EXPECT_EQ(second[0].port, 1);
  EXPECT_EQ(second[0].side, PortSide::kIngress);
  EXPECT_TRUE(second[0].up);
  EXPECT_FALSE(injector.next_repair().has_value());  // port 2 is permanent
  EXPECT_FALSE(injector.next_transition().has_value());
}

TEST(FaultInjector, BindRejectsOutOfRangeScriptedPort) {
  FaultConfig config;
  config.port_faults.push_back({1.0, 9, PortSide::kBoth, -1.0});
  FaultInjector injector(config);
  EXPECT_THROW(injector.bind_ports(4), std::invalid_argument);
}

TEST(FaultInjector, AttemptBudgetExhaustionFailsTheSetup) {
  FaultConfig config;
  config.setup_timeout_probability = 0.999999;  // essentially every attempt
  config.max_attempts = 3;
  FaultInjector injector(config);
  injector.bind_ports(4);
  const SetupOutcome o = injector.sample_setup(0.01, {{0, 1}});
  EXPECT_FALSE(o.established);
  EXPECT_EQ(o.attempts, 3);
  // Paid for every attempt plus bounded backoff between them.
  EXPECT_GE(o.setup_time, 3 * 0.01 - 1e-12);
  const double worst_backoff = 0.01 * (1.0 + 2.0);  // 2^0, 2^1 under factor 2
  EXPECT_LE(o.setup_time, 3 * 0.01 + worst_backoff + 1e-12);
}

TEST(FaultInjector, BackoffIsCapped) {
  FaultConfig config;
  config.setup_timeout_probability = 0.999999;
  config.max_attempts = 40;
  FaultInjector injector(config);
  injector.bind_ports(2);
  const SetupOutcome o = injector.sample_setup(0.01, {{0, 1}});
  EXPECT_FALSE(o.established);
  EXPECT_EQ(o.attempts, 40);
  // 40 attempts + 39 backoffs of 1, 2, 4, 8, 16 and then 32 * delta each
  // (uncapped, the last would be 2^38 * delta).
  EXPECT_NEAR(o.setup_time, 0.01 * (40 + 31 + 34 * 32.0), 1e-9);
}

TEST(FaultInjector, CrosspointFailuresYieldPartialSetups) {
  FaultConfig config;
  config.crosspoint_failure_probability = 0.5;
  config.seed = 7;
  FaultInjector injector(config);
  injector.bind_ports(8);
  int latched = 0;
  int dropped = 0;
  for (int round = 0; round < 64; ++round) {
    const SetupOutcome o = injector.sample_setup(0.01, {{0, 1}, {2, 3}, {4, 5}});
    EXPECT_TRUE(o.established);
    EXPECT_EQ(o.established_circuits.size() + o.failed_circuits.size(), 3u);
    latched += static_cast<int>(o.established_circuits.size());
    dropped += static_cast<int>(o.failed_circuits.size());
  }
  EXPECT_GT(latched, 0);
  EXPECT_GT(dropped, 0);  // at p = 0.5 over 192 draws both sides occur
}

TEST(FaultInjector, RandomPortFailuresAreSeedDeterministic) {
  FaultConfig config;
  config.port_mtbf = 5.0;
  config.port_mttr = 1.0;
  config.seed = 42;
  FaultInjector a(config);
  FaultInjector b(config);
  a.bind_ports(6);
  b.bind_ports(6);
  const auto ta = a.advance_to(100.0);
  const auto tb = b.advance_to(100.0);
  ASSERT_FALSE(ta.empty());
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta[i].at, tb[i].at);
    EXPECT_EQ(ta[i].port, tb[i].port);
    EXPECT_EQ(ta[i].up, tb[i].up);
  }
  // A different seed produces a different timeline.
  config.seed = 43;
  FaultInjector c(config);
  c.bind_ports(6);
  const auto tc = c.advance_to(100.0);
  bool differs = tc.size() != ta.size();
  for (std::size_t i = 0; !differs && i < ta.size(); ++i) {
    differs = ta[i].at != tc[i].at || ta[i].port != tc[i].port;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultTrace, ParsesCommentsSidesAndRepairs) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "0.5 3 in 2.0\n"
      "1.25 0 both never\n"
      "2 4 out 0.125\n");
  const auto faults = parse_fault_trace(in);
  ASSERT_EQ(faults.size(), 3u);
  EXPECT_DOUBLE_EQ(faults[0].at, 0.5);
  EXPECT_EQ(faults[0].port, 3);
  EXPECT_EQ(faults[0].side, PortSide::kIngress);
  EXPECT_DOUBLE_EQ(faults[0].repair_after, 2.0);
  EXPECT_EQ(faults[1].side, PortSide::kBoth);
  EXPECT_LT(faults[1].repair_after, 0.0);  // never
  EXPECT_EQ(faults[2].side, PortSide::kEgress);
}

TEST(FaultTrace, MalformedLinesNameTheLineNumber) {
  const auto error_of = [](const char* text) -> std::string {
    std::istringstream in(text);
    try {
      parse_fault_trace(in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  };
  EXPECT_NE(error_of("0.5 1 in 1.0\nnonsense\n").find("line 2"), std::string::npos);
  EXPECT_NE(error_of("-1 0 both never\n").find("line 1"), std::string::npos);     // negative time
  EXPECT_NE(error_of("1 -2 both never\n").find("line 1"), std::string::npos);    // negative port
  EXPECT_NE(error_of("1 0 sideways never\n").find("line 1"), std::string::npos); // bad side
  EXPECT_NE(error_of("nan 0 both never\n").find("line 1"), std::string::npos);   // NaN time
  EXPECT_THROW(load_fault_trace("/nonexistent/fault/trace"), std::runtime_error);
}

TEST(FaultTrace, NonFiniteTimesAndDelaysAreLineNumbered) {
  const auto error_of = [](const char* text) -> std::string {
    std::istringstream in(text);
    try {
      parse_fault_trace(in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  };
  // "inf" is rejected either at extraction or by the finite check — both
  // paths must name the offending line.
  const std::string inf_time = error_of("0.5 1 in 1.0\ninf 0 both never\n");
  EXPECT_NE(inf_time.find("fault trace line 2"), std::string::npos);
  const std::string nan_delay = error_of("1 0 both nan\n");
  EXPECT_NE(nan_delay.find("line 1"), std::string::npos);
  EXPECT_NE(nan_delay.find("repair delay"), std::string::npos);
  const std::string trailing = error_of("1 0 both never extra\n");
  EXPECT_NE(trailing.find("line 1"), std::string::npos);
  EXPECT_NE(trailing.find("extra"), std::string::npos);
}

TEST(FaultTrace, PortRangeIsCheckedAtParseTimeWhenKnown) {
  // With the fabric size supplied, an out-of-range port is a *parse* error
  // naming the line — not a generic range failure later at bind time.
  const auto parse_with = [](const char* text, int num_ports) {
    std::istringstream in(text);
    return parse_fault_trace(in, num_ports);
  };
  const auto faults = parse_with("0.5 7 in 1.0\n", 8);  // port 7 of 8: fine
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].port, 7);

  std::string what;
  try {
    parse_with("0.5 3 in 1.0\n1.0 8 out never\n", 8);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("line 2"), std::string::npos);
  EXPECT_NE(what.find("out of range"), std::string::npos);
  EXPECT_NE(what.find("8"), std::string::npos);

  // Without the fabric size the check is deferred to bind_ports, which
  // still rejects the trace — just without line provenance.
  const auto deferred = parse_with("0.5 8 out never\n", -1);
  ASSERT_EQ(deferred.size(), 1u);
  FaultConfig config;
  config.port_faults = deferred;
  FaultInjector injector(config);
  EXPECT_THROW(injector.bind_ports(8), std::invalid_argument);
}

}  // namespace
}  // namespace reco::sim
