// Structured tracing: span / instant events serialized as Chrome
// trace-event JSON (the "JSON Array Format" both Perfetto and
// chrome://tracing load directly).
//
// Two timelines share one trace file, distinguished by pid:
//  * pid 1 ("wall clock") — real elapsed time of pipeline stages, one
//    track per OS thread (stuffing, regularization, BvN rounds, pool
//    tasks).  Timestamps are microseconds since tracer construction.
//  * pid 2 ("simulated time") — the event-driven simulator's clock, one
//    track per caller-chosen id (coflow, port): circuit establish /
//    teardown instants, per-coflow arrival -> finish spans.  Simulated
//    seconds map to trace microseconds, so "1 ms" in Perfetto is 1 ms of
//    simulated time.
//
// Recording is mutex-serialized (events are per-round / per-task scale,
// not per-matrix-entry) and bounded: beyond `capacity()` events the
// tracer counts drops instead of growing, so a tracing-enabled benchmark
// loop cannot exhaust memory.  All call sites must be gated on
// `obs::enabled()` — see obs/obs.hpp.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace reco::obs {

/// One numeric argument attached to an event ({"args": {key: value}}).
struct TraceArg {
  const char* key;
  double value;
};

struct TraceEvent {
  std::string name;
  const char* cat = "";
  char ph = 'X';        ///< 'X' complete, 'i' instant
  double ts_us = 0.0;   ///< microseconds on the owning pid's timeline
  double dur_us = 0.0;  ///< complete events only
  int pid = 1;
  int tid = 0;
  std::vector<TraceArg> args;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  static constexpr int kWallPid = 1;
  static constexpr int kSimPid = 2;

  Tracer();

  /// Wall-clock complete event on the calling thread's track.
  void complete(std::string name, const char* cat, Clock::time_point start,
                Clock::time_point end, std::initializer_list<TraceArg> args = {});
  void complete(std::string name, const char* cat, Clock::time_point start,
                Clock::time_point end, const TraceArg* args, int num_args);

  /// Simulated-time span [t0, t1] (seconds) on track `track` of the sim pid.
  void sim_span(std::string name, const char* cat, double t0_s, double t1_s, int track,
                std::initializer_list<TraceArg> args = {});

  /// Simulated-time instant at `t_s` (seconds) on track `track`.
  void sim_instant(std::string name, const char* cat, double t_s, int track,
                   std::initializer_list<TraceArg> args = {});

  /// Perfetto track label for a sim-pid track (emitted as thread_name
  /// metadata, e.g. "coflow 3").  Last write wins.
  void name_sim_track(int track, std::string label);

  /// Drop-at-capacity bound; `set_capacity` applies to future records.
  std::size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }
  void set_capacity(std::size_t cap) { capacity_.store(cap, std::memory_order_relaxed); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  std::size_t size() const;
  void clear();

  /// Small int track id of the calling OS thread (registers on first use;
  /// 0 is the first thread to record, typically main).
  int wall_track_id();

  /// Serialize everything recorded so far as Chrome trace-event JSON:
  /// {"traceEvents": [...], "displayTimeUnit": "ms"} with process/thread
  /// metadata records first.
  void write_chrome_json(std::ostream& out) const;

 private:
  void record(TraceEvent e);

  const Clock::time_point epoch_;
  std::atomic<std::size_t> capacity_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::size_t> approx_size_{0};  ///< pre-lock capacity probe
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::vector<std::pair<int, std::string>> sim_track_names_;
  int next_wall_track_ = 0;
};

/// RAII wall-clock span: times construction -> destruction and records a
/// complete event, if tracing was enabled at construction.  Numeric args
/// can be attached mid-scope with `arg()` (up to 6; extras are ignored).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(const char* key, double value) {
    if (active_ && num_args_ < kMaxArgs) args_[num_args_++] = {key, value};
  }

 private:
  static constexpr int kMaxArgs = 6;
  bool active_;
  const char* name_;
  const char* cat_;
  Tracer::Clock::time_point start_;
  TraceArg args_[kMaxArgs];
  int num_args_ = 0;
};

}  // namespace reco::obs
