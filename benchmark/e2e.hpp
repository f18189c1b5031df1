// Shared pieces of the reco_e2e benchmark driver: run settings, the result
// every workload fills in, the driver-side span recorder used by --trace
// runs, and small timing / statistics / digest helpers.
//
// The driver measures the library from outside: an untraced pass times the
// public entry point a user calls (reco_sin, reco_mul_pipeline,
// OnlineCore::plan, CampaignRunner::run); a traced pass calls the same
// pipeline stage by stage through each layer's public functions and
// records one span per call.  Nothing inside src/ is instrumented for this.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Settings of one workload run, from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  /// Measurement budget: after a workload's minimum number of passes over
  /// its input, passes repeat while the next is expected to end within it.
  double seconds = 0.0;
  int threads = 1;
  bool trace = false;
  bool tiny = false;  ///< smoke-test scale
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports.  `metrics` holds every end-to-end row the
/// workload defines; `per_layer` is filled by --trace runs only.
struct Result {
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages
  std::vector<Metric> metrics;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, double>> counts;  ///< sample and pass counts

  void add(const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void layer(const char* name, double value, const char* unit) {
    per_layer.push_back({name, value, unit});
  }
  void count(const char* name, double value) { counts.emplace_back(name, value); }
  /// Record a failure; `ops` ops count as failed.
  void fail(const std::string& what, std::uint64_t ops = 1);
  /// Pass 0's digest becomes the run's; every later pass must reproduce it.
  void pass_digest(int pass, std::uint64_t value);
};

/// FNV-1a over the bytes of everything added, chained through
/// reco::fnv1a64 so digests match the library's own convention.
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_f64(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = reco::kFnvOffsetBasis;
};

/// Driver-side spans, kept in memory and written as Chrome trace-event
/// JSON at exit.  Each span records its name, start, end, the index of its
/// parent span (-1 for an op's root) and the op it belongs to.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t op;
  };

  SpanRecorder() : epoch_(Clock::now()) {}

  int begin(const char* name, int parent, std::int64_t op);
  void end(int span);
  double duration_ms(int span) const {
    const Span& s = spans_[static_cast<std::size_t>(span)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

  /// Times `fn()` as a child span of `parent` and returns its result.
  template <typename Fn>
  auto time(const char* name, int parent, Fn&& fn) {
    const int s = begin(name, parent, spans_[static_cast<std::size_t>(parent)].op);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      end(s);
    } else {
      auto out = fn();
      end(s);
      return out;
    }
  }

  /// Summed duration of every span with this name, in milliseconds.
  double busy_ms(const std::string& name) const;
  /// Summed self time per span name: duration minus the time covered by
  /// the span's direct children.
  std::vector<std::pair<std::string, double>> self_ms() const;
  /// Sum of root (op) span durations, in milliseconds.
  double root_ms() const;

  void write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Linear-interpolated quantile (0 <= q <= 1) of an unsorted sample.
double quantile(std::vector<double> v, double q);
double sum(const std::vector<double>& v);

/// Process peak resident set size, in MiB.
double peak_rss_mb();

/// Runs `setup()` `reps` times and returns the median wall time in seconds.
template <typename Fn>
double median_setup_s(int reps, Fn&& setup) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    setup();
    t.push_back(seconds_since(t0));
  }
  return quantile(std::move(t), 0.5);
}

/// Runs `pass(k)` for k = 0, 1, ...: at least `min_passes` times, then while
/// another pass of the mean length so far is expected to end inside
/// `seconds`.  Returns the pass count.
template <typename Fn>
int run_passes(double seconds, int min_passes, Fn&& pass) {
  const auto t0 = Clock::now();
  int passes = 0;
  do {
    pass(passes++);
  } while (passes < min_passes || seconds_since(t0) * (passes + 1) / passes <= seconds);
  return passes;
}

/// Host latency of each op of a pass, over every pass.  Passes repeat the
/// same ops on the same input, so an op's median across passes discards the
/// short slow-downs a shared host inflicts on single calls.
class OpTimes {
 public:
  void record(std::size_t op, double seconds);
  /// Per-op median across passes, in seconds, in op order.
  std::vector<double> medians() const;

 private:
  std::vector<std::vector<double>> t_;
};

/// Adds op_ms_p50 / op_ms_p99 over per-op median latencies, with the
/// number of distinct ops beside them.
void add_op_latency(Result& r, const std::vector<double>& op_s);

/// Percent by which the traced pass's summed op time exceeds the untraced.
inline double overhead_pct(double traced_s, double untraced_s) {
  return untraced_s > 0.0 ? 100.0 * (traced_s - untraced_s) / untraced_s : 0.0;
}

Result run_sin_plan(const RunConfig& cfg, SpanRecorder& spans);
Result run_mul_batch(const RunConfig& cfg, SpanRecorder& spans);
Result run_online_stream(const RunConfig& cfg, SpanRecorder& spans);
Result run_campaign(const RunConfig& cfg, SpanRecorder& spans);

}  // namespace e2e
