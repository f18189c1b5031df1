#include "trace/fb_format.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace reco {
namespace {

// Two coflows on a 4-rack cluster: a 2x2 shuffle and a single flow.
constexpr const char* kSample =
    "4 2\n"
    "1 0 2 0 1 2 2:100 3:50\n"
    "7 2500 1 3 1 0:10\n";

TEST(FbFormat, ParsesHeaderAndCounts) {
  std::istringstream in(kSample);
  int ports = 0;
  const auto coflows = read_fb_trace(in, ports);
  EXPECT_EQ(ports, 4);
  ASSERT_EQ(coflows.size(), 2u);
  EXPECT_EQ(coflows[0].id, 0);
  EXPECT_EQ(coflows[1].id, 1);
}

TEST(FbFormat, SplitsReducerVolumeAcrossMappers) {
  std::istringstream in(kSample);
  int ports = 0;
  const auto coflows = read_fb_trace(in, ports);
  const Matrix& d = coflows[0].demand;
  // Reducer rack 2 gets 100 MB from mappers {0, 1}: 50 MB per mapper.
  const Time expect_half = megabytes_to_seconds(50.0);
  EXPECT_NEAR(d.at(0, 2), expect_half, 1e-12);
  EXPECT_NEAR(d.at(1, 2), expect_half, 1e-12);
  // Reducer rack 3 gets 50 MB: 25 MB per mapper.
  EXPECT_NEAR(d.at(0, 3), megabytes_to_seconds(25.0), 1e-12);
  EXPECT_EQ(coflows[0].mode(), TransmissionMode::kM2M);
}

TEST(FbFormat, MegabyteConversionAt100Gbps) {
  // 100 MB at 100 Gb/s = 800 Mbit / 100000 Mbit/s = 8 ms.
  EXPECT_NEAR(megabytes_to_seconds(100.0), 8e-3, 1e-12);
}

TEST(FbFormat, ArrivalsAreZeroed) {
  // The paper's coflows are pre-buffered: the trace's 2500 ms arrival is
  // parsed and checked, then read as 0.
  std::istringstream in(kSample);
  int ports = 0;
  const auto coflows = read_fb_trace(in, ports);
  EXPECT_DOUBLE_EQ(coflows[1].arrival, 0.0);
}

TEST(FbFormat, IntraRackTrafficDropped) {
  // Mapper and reducer in the same rack: no fabric demand.
  std::istringstream in("2 1\n1 0 1 1 1 1:40\n");
  int ports = 0;
  const auto coflows = read_fb_trace(in, ports);
  EXPECT_EQ(coflows[0].demand.nnz(), 0);
}

TEST(FbFormat, RejectsMalformedInput) {
  int ports = 0;
  {
    std::istringstream in("not-a-number\n");
    EXPECT_THROW(read_fb_trace(in, ports), std::runtime_error);
  }
  {
    std::istringstream in("4 1\n1 0 1 9 1 2:10\n");  // mapper rack 9 out of range
    EXPECT_THROW(read_fb_trace(in, ports), std::runtime_error);
  }
  {
    std::istringstream in("4 1\n1 0 1 0 1 2-10\n");  // missing colon
    EXPECT_THROW(read_fb_trace(in, ports), std::runtime_error);
  }
  {
    std::istringstream in("4 1\n1 0 1 0 2 2:10\n");  // truncated reducer list
    EXPECT_THROW(read_fb_trace(in, ports), std::runtime_error);
  }
  EXPECT_THROW(load_fb_trace("/nonexistent/file", ports), std::runtime_error);
  // Trailing garbage in a rack, a size or a line: each names its line.
  for (const auto& [text, line] : std::vector<std::pair<std::string, std::string>>{
           {"4 1\n1 0 1 0 1 2x:10\n", "line 2"},     // rack "2x"
           {"4 1\n1 0 1 0 1 2:10MB\n", "line 2"},    // size "10MB"
           {"4 1\n1 0 1 0 1 2:0x10\n", "line 2"},    // hex size
           {"4 1\n1 0 1 0 1 2:10 junk\n", "line 2"}, // token after the reducers
           {"4 1 junk\n1 0 1 0 1 2:10\n", "line 1"}, // token after the header
       }) {
    std::istringstream in(text);
    try {
      read_fb_trace(in, ports);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos) << e.what();
    }
  }
}

TEST(FbFormat, MalformedInputNamesTheLine) {
  const auto error_of = [](const char* text) -> std::string {
    std::istringstream in(text);
    int ports = 0;
    try {
      read_fb_trace(in, ports);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  };
  // Out-of-range reducer rack, NaN shuffle size, negative size, negative
  // arrival: each error names the offending (1-based) line.
  EXPECT_NE(error_of("4 1\n1 0 1 0 1 9:10\n").find("line 2"), std::string::npos);
  EXPECT_NE(error_of("4 1\n1 0 1 0 1 2:nan\n").find("line 2"), std::string::npos);
  EXPECT_NE(error_of("4 1\n1 0 1 0 1 2:-10\n").find("line 2"), std::string::npos);
  EXPECT_NE(error_of("4 2\n1 0 1 0 1 2:10\n5 -3 1 0 1 2:10\n").find("line 3"),
            std::string::npos);
  EXPECT_NE(error_of("4 2\n1 0 1 0 1 2:10\n").find("expected 2"), std::string::npos);
}

}  // namespace
}  // namespace reco
