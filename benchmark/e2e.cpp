#include "e2e.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>

namespace e2e {

void Result::fail(const std::string& what, std::uint64_t ops) {
  failed += ops;
  if (errors.size() < 8) errors.push_back(what);
}

void Result::pass_digest(int pass, std::uint64_t value) {
  if (pass == 0) {
    digest = value;
  } else if (value != digest) {
    fail("pass " + std::to_string(pass) + " digest differs from pass 0");
  }
}

void Digest::add_u64(std::uint64_t v) {
  unsigned char bytes[8];
  for (int b = 0; b < 8; ++b) bytes[b] = static_cast<unsigned char>((v >> (8 * b)) & 0xffu);
  h_ = reco::fnv1a64(bytes, sizeof(bytes), h_);
}

void Digest::add_f64(double v) { add_u64(std::bit_cast<std::uint64_t>(v)); }

int SpanRecorder::begin(const char* name, int parent, std::int64_t op) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  spans_.push_back({name, now, now, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

double SpanRecorder::busy_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_ms() const {
  // Children never overlap each other (the driver is single-threaded and
  // calls one layer at a time), so a span's covered time is the sum of its
  // direct children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::int64_t> self;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    self[spans_[k].name] += spans_[k].end_ns - spans_[k].start_ns - child_ns[k];
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, ns] : self) out.emplace_back(name, static_cast<double>(ns) / 1e6);
  return out;
}

double SpanRecorder::root_ms() const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%lld}}",
                  k == 0 ? "" : ",\n", s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, k, s.parent,
                  static_cast<long long>(s.op));
    out << buf;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("write failed for trace file " + path);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

void OpTimes::record(std::size_t op, double seconds) {
  if (op >= t_.size()) t_.resize(op + 1);
  t_[op].push_back(seconds);
}

std::vector<double> OpTimes::medians() const {
  std::vector<double> out;
  out.reserve(t_.size());
  for (const std::vector<double>& v : t_) out.push_back(quantile(v, 0.5));
  return out;
}

void add_op_latency(Result& r, const std::vector<double>& op_s) {
  r.add("op_ms_p50", 1e3 * quantile(op_s, 0.50), "ms");
  r.add("op_ms_p99", 1e3 * quantile(op_s, 0.99), "ms");
  r.count("op_samples", static_cast<double>(op_s.size()));
}

}  // namespace e2e
