#include "trace/serialization.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "trace/generator.hpp"

namespace reco {
namespace {

TEST(Serialization, RoundTripPreservesEverything) {
  GeneratorOptions o;
  o.num_ports = 20;
  o.num_coflows = 30;
  o.seed = 3;
  o.mean_interarrival = 0.01;  // arrivals must survive the round trip (v2)
  const auto original = generate_workload(o);

  std::stringstream buffer;
  write_trace(buffer, original, o.num_ports);
  int ports = 0;
  const auto loaded = read_trace(buffer, ports);

  EXPECT_EQ(ports, 20);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t k = 0; k < original.size(); ++k) {
    EXPECT_EQ(loaded[k].id, original[k].id);
    EXPECT_DOUBLE_EQ(loaded[k].weight, original[k].weight);
    EXPECT_DOUBLE_EQ(loaded[k].arrival, original[k].arrival);
    EXPECT_EQ(loaded[k].demand, original[k].demand);
  }
}

TEST(Serialization, ReadsLegacyVersionOneWithZeroArrivals) {
  std::stringstream buffer("reco-trace 1 4 1\n0 0.5 1 0 1 5.0\n");
  int ports = 0;
  const auto coflows = read_trace(buffer, ports);
  ASSERT_EQ(coflows.size(), 1u);
  EXPECT_DOUBLE_EQ(coflows[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(coflows[0].weight, 0.5);
  EXPECT_DOUBLE_EQ(coflows[0].demand.at(0, 1), 5.0);
}

TEST(Serialization, EmptyWorkloadRoundTrips) {
  std::stringstream buffer;
  write_trace(buffer, {}, 8);
  int ports = 0;
  EXPECT_TRUE(read_trace(buffer, ports).empty());
  EXPECT_EQ(ports, 8);
}

TEST(Serialization, RejectsBadHeader) {
  std::stringstream buffer("not-a-trace 1 4 0\n");
  int ports = 0;
  EXPECT_THROW(read_trace(buffer, ports), std::runtime_error);
}

TEST(Serialization, RejectsBadVersion) {
  std::stringstream buffer("reco-trace 99 4 0\n");
  int ports = 0;
  EXPECT_THROW(read_trace(buffer, ports), std::runtime_error);
}

TEST(Serialization, RejectsTruncatedRecord) {
  std::stringstream buffer("reco-trace 2 4 1\n0 1.0 0.0 2 0 0 5.0\n");  // second flow missing
  int ports = 0;
  EXPECT_THROW(read_trace(buffer, ports), std::runtime_error);
}

TEST(Serialization, RejectsOutOfRangePort) {
  std::stringstream buffer("reco-trace 2 4 1\n0 1.0 0.0 1 0 9 5.0\n");
  int ports = 0;
  EXPECT_THROW(read_trace(buffer, ports), std::runtime_error);
}

// Every malformed input is rejected with a message naming the 1-based line.
std::string read_error(const std::string& text) {
  std::stringstream buffer(text);
  int ports = 0;
  try {
    read_trace(buffer, ports);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(Serialization, RejectsNaNDemandWithLineNumber) {
  // "nan" either fails numeric extraction (truncated list) or parses as a
  // NaN demand; both are rejected naming line 2.
  const std::string err = read_error("reco-trace 2 4 1\n0 1.0 0.0 1 0 1 nan\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Serialization, RejectsNegativeDemandWithLineNumber) {
  const std::string err = read_error("reco-trace 2 4 1\n0 1.0 0.0 1 0 1 -5.0\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Serialization, RejectsDuplicateFlow) {
  const std::string err = read_error("reco-trace 2 4 1\n0 1.0 0.0 2 0 1 5.0 0 1 2.0\n");
  EXPECT_NE(err.find("duplicate flow"), std::string::npos) << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Serialization, RejectsDuplicateCoflowId) {
  const std::string err = read_error(
      "reco-trace 2 4 2\n7 1.0 0.0 1 0 1 5.0\n7 1.0 0.0 1 1 2 3.0\n");
  EXPECT_NE(err.find("duplicate coflow id"), std::string::npos) << err;
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(Serialization, RejectsNegativeWeightAndArrival) {
  EXPECT_NE(read_error("reco-trace 2 4 1\n0 -1.0 0.0 1 0 1 5.0\n").find("weight"),
            std::string::npos);
  EXPECT_NE(read_error("reco-trace 2 4 1\n0 1.0 -2.5 1 0 1 5.0\n").find("arrival"),
            std::string::npos);
}

TEST(Serialization, RejectsTrailingTokens) {
  const std::string err = read_error("reco-trace 2 4 1\n0 1.0 0.0 1 0 1 5.0 junk\n");
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  const std::string header = read_error("reco-trace 2 4 1 junk\n0 1.0 0.0 1 0 1 5.0\n");
  EXPECT_NE(header.find("trailing"), std::string::npos) << header;
  EXPECT_NE(header.find("line 1"), std::string::npos) << header;
}

TEST(Serialization, TruncatedFileNamesExpectedCount) {
  const std::string err = read_error("reco-trace 2 4 3\n0 1.0 0.0 1 0 1 5.0\n");
  EXPECT_NE(err.find("expected 3"), std::string::npos) << err;
}

TEST(Serialization, FileRoundTrip) {
  GeneratorOptions o;
  o.num_ports = 10;
  o.num_coflows = 5;
  const auto original = generate_workload(o);
  const std::string path = ::testing::TempDir() + "/reco_trace_test.txt";
  save_trace(path, original, o.num_ports);
  int ports = 0;
  const auto loaded = load_trace(path, ports);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(ports, 10);
  EXPECT_THROW(load_trace("/nonexistent/path/xyz", ports), std::runtime_error);
}

}  // namespace
}  // namespace reco
