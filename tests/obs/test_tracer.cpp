// Tracer: Chrome trace-event JSON shape (validated with a minimal JSON
// parser, the same grammar python -m json.tool accepts), wall/sim
// timeline mapping, metadata records, capacity/drop accounting, string
// escaping, and concurrent recording from the runtime pool (the TSan CI
// job runs this suite at RECO_THREADS=8).
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace reco::obs {
namespace {

/// Minimal recursive-descent JSON parser: accepts exactly the RFC 8259
/// value grammar, returns false on any syntax error.  Enough to prove the
/// tracer's output is loadable; Perfetto-level semantics are asserted via
/// substring checks on top.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') return ++pos_, true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int k = 1; k <= 4; ++k) {
            if (pos_ + k >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_ + k]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' && e != 'n' &&
                   e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (peek() != *p) return false;
    }
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string dump(const Tracer& t) {
  std::ostringstream out;
  t.write_chrome_json(out);
  return out.str();
}

TEST(Tracer, EmptyTraceIsValidJsonWithProcessMetadata) {
  Tracer t;
  const std::string json = dump(t);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("wall clock (pipeline)"), std::string::npos);
  EXPECT_NE(json.find("simulated time (fabric)"), std::string::npos);
}

TEST(Tracer, RoundTripsEventFields) {
  Tracer t;
  const auto start = Tracer::Clock::now();
  t.complete("bvn.peel", "bvn", start, start + std::chrono::microseconds(250),
             {{"nnz", 42.0}, {"coefficient", 0.5}});
  t.sim_instant("round", "bvn", 0.003, 0);
  t.sim_span("coflow 3", "sim.coflow", 0.001, 0.005, 3, {{"cct", 0.004}});
  t.sim_instant("circuit.establish", "sim.circuit", 0.002, -1);
  t.name_sim_track(3, "coflow 3");
  EXPECT_EQ(t.size(), 4u);

  const std::string json = dump(t);
  ASSERT_TRUE(JsonChecker(json).valid()) << json;
  // Wall complete event with duration and args.
  EXPECT_NE(json.find("\"name\":\"bvn.peel\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"bvn\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250"), std::string::npos);
  EXPECT_NE(json.find("\"nnz\":42"), std::string::npos);
  // Instants are thread-scoped so Perfetto draws them on their track.
  EXPECT_NE(json.find("\"ph\":\"i\",\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // Sim timeline: seconds -> microseconds on pid 2, caller-chosen track.
  EXPECT_NE(json.find("\"ts\":1000,\"dur\":4000,\"pid\":2,\"tid\":3"), std::string::npos);
  // Track label metadata.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(Tracer, EscapesHostileNames) {
  Tracer t;
  t.sim_instant(std::string("quote \" backslash \\ newline \n tab \t ctrl \x01"), "esc", 0.0, 0);
  const std::string json = dump(t);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

TEST(Tracer, DropsBeyondCapacity) {
  Tracer t;
  t.set_capacity(4);
  for (int k = 0; k < 10; ++k) t.sim_instant("e", "cap", 0.0, 0);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // The truncated trace must still serialize cleanly.
  EXPECT_TRUE(JsonChecker(dump(t)).valid());
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  t.sim_instant("e", "cap", 0.0, 0);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Tracer, ConcurrentRecordingFromPool) {
  const int old_threads = runtime::thread_count();
  runtime::set_thread_count(4);
  Tracer t;
  constexpr int kN = 2000;
  runtime::parallel_for(kN, [&](int i) {
    const auto now = Tracer::Clock::now();
    t.complete("task " + std::to_string(i), "pool", now, now);
  });
  EXPECT_EQ(t.size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(JsonChecker(dump(t)).valid());
  runtime::set_thread_count(old_threads);
}

}  // namespace
}  // namespace reco::obs
