// Time-series sampling: periodic snapshots of the metrics registry into a
// bounded ring, with per-window derived statistics — counter *rates* and
// histogram-delta *percentiles* — so a live run can answer "what is p99
// decision latency right now" instead of only at exit.
//
// One sampler instance serves one timeline:
//  * the *wall* sampler is driven by a background thread (WallSampler)
//    ticking every `period_s` of real time — the daemon/endpoint mode;
//  * the *sim* sampler is driven by a recurring daemon event (the
//    OnlineDaemon schedules one every `sample_every` simulated seconds),
//    so windows are exact simulated-time intervals.
//
// The PR-3 telemetry contract carries over unchanged: sampling is
// write-only (it reads the registry and derives numbers; nothing feeds
// back into a decision), every producer site stays gated on
// `obs::enabled()`, and the ring is bounded — a week-long run holds the
// last `capacity` windows, never an unbounded series.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace reco::obs {

/// One windowed statistic derived from two consecutive registry snapshots.
/// Counters carry `value` (cumulative level) and `rate` = delta / window
/// seconds.  Histograms carry the window's observation count and rate plus
/// interpolated percentiles over the *bucket deltas* (see
/// quantile_from_buckets) — i.e. p99 of the observations made during this
/// window, not since process start.
struct WindowStat {
  std::string name;
  std::string kind;  ///< "counter" | "histogram"
  double value = 0.0;
  double rate = 0.0;
  std::uint64_t window_count = 0;  ///< histogram observations in the window
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// One ring entry: the timeline instant plus every windowed statistic.
struct SamplePoint {
  double t = 0.0;       ///< seconds on the owning timeline
  double window = 0.0;  ///< seconds since the previous sample (0: first)
  std::vector<WindowStat> stats;
};

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(std::string timeline, std::size_t capacity = 512);

  const std::string& timeline() const { return timeline_; }

  /// Snapshot the global registry at timeline instant `t`, derive window
  /// statistics against the previous sample, and push into the ring.
  /// Non-monotone `t` (a new run on a reset clock) re-bases the window.
  /// Also folds `Tracer::dropped()` into `obs.trace.dropped_events`.
  void sample(double t);

  std::size_t size() const;
  std::uint64_t total_samples() const;

  /// Ring contents, oldest to newest (copies; the ring stays live).
  std::vector<SamplePoint> series() const;
  /// Newest sample; default-constructed (empty stats) when none yet.
  SamplePoint latest() const;

  /// Drop samples and the delta base (registrations are untouched).
  void clear();

  /// JSON dump of the whole ring:
  /// {"timeline": ..., "samples": [{"t":..., "window":..., "stats":[...]}]}
  void write_json(std::ostream& out) const;

 private:
  void push(SamplePoint point);

  mutable std::mutex mu_;
  std::string timeline_;
  const std::size_t capacity_;
  std::vector<SamplePoint> ring_;  ///< circular once full
  std::size_t head_ = 0;           ///< next write position
  std::uint64_t total_ = 0;
  bool has_prev_ = false;
  double prev_t_ = 0.0;
  RegistrySnapshot prev_;
};

/// Background wall-clock driver: ticks `sampler.sample(elapsed_seconds)`
/// every `period_s` from a dedicated thread until stop() (or destruction),
/// then takes one final sample so the last window is always closed.
class WallSampler {
 public:
  WallSampler(TimeSeriesSampler& sampler, double period_s);
  ~WallSampler();

  WallSampler(const WallSampler&) = delete;
  WallSampler& operator=(const WallSampler&) = delete;

  /// Idempotent; joins the sampling thread.
  void stop();

 private:
  void loop();

  TimeSeriesSampler* sampler_;
  double period_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::thread thread_;
};

/// Process-wide samplers, one per timeline (created on first use, like
/// obs::metrics()).  The HTTP endpoint and the snapshot writer serve both.
TimeSeriesSampler& wall_sampler();
TimeSeriesSampler& sim_sampler();

}  // namespace reco::obs
