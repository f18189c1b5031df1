#include "obs/timeseries.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>

#include "obs/obs.hpp"

namespace reco::obs {

namespace {

/// JSON-safe number: the exporter promises valid JSON, and min/max are
/// +/-inf on empty histograms — map anything non-finite to 0.
double finite(double v) { return std::isfinite(v) ? v : 0.0; }

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u0020";  // control chars never appear in metric names
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(std::string timeline, std::size_t capacity)
    : timeline_(std::move(timeline)), capacity_(std::max<std::size_t>(capacity, 1)) {}

void TimeSeriesSampler::sample(double t) {
  sync_trace_dropped();  // surface Tracer::dropped() before snapshotting
  const RegistrySnapshot cur = metrics().structured_snapshot();

  SamplePoint point;
  point.t = t;
  std::lock_guard<std::mutex> lock(mu_);
  const bool windowed = has_prev_ && t > prev_t_;
  const double dt = windowed ? t - prev_t_ : 0.0;
  point.window = dt;
  point.stats.reserve(cur.counters.size() + cur.histograms.size());

  // Sections are sorted by name (std::map iteration), so deltas against the
  // previous snapshot are a two-pointer merge; metrics registered since the
  // last sample simply have no delta base and report a zero rate.
  std::size_t p = 0;
  for (const MetricSample& c : cur.counters) {
    WindowStat w;
    w.name = c.name;
    w.kind = "counter";
    w.value = c.value;
    if (windowed) {
      while (p < prev_.counters.size() && prev_.counters[p].name < c.name) ++p;
      if (p < prev_.counters.size() && prev_.counters[p].name == c.name) {
        w.rate = std::max(0.0, c.value - prev_.counters[p].value) / dt;
      }
    }
    point.stats.push_back(std::move(w));
  }
  p = 0;
  std::vector<std::uint64_t> delta;
  for (const HistogramSnapshot& h : cur.histograms) {
    WindowStat w;
    w.name = h.name;
    w.kind = "histogram";
    w.value = static_cast<double>(h.count);
    const HistogramSnapshot* base = nullptr;
    if (windowed) {
      while (p < prev_.histograms.size() && prev_.histograms[p].name < h.name) ++p;
      if (p < prev_.histograms.size() && prev_.histograms[p].name == h.name) {
        base = &prev_.histograms[p];
      }
    }
    delta.assign(h.counts.size(), 0);
    std::uint64_t window_count = 0;
    for (std::size_t k = 0; k < h.counts.size(); ++k) {
      const std::uint64_t before =
          base != nullptr && k < base->counts.size() ? base->counts[k] : 0;
      delta[k] = h.counts[k] >= before ? h.counts[k] - before : 0;  // tolerate resets
      window_count += delta[k];
    }
    if (windowed && window_count > 0) {
      w.window_count = window_count;
      w.rate = static_cast<double>(window_count) / dt;
      // The window's own extremes are not tracked; the all-time [min, max]
      // is a strictly wider clamp, so interpolation stays inside it.
      w.p50 = quantile_from_buckets(h.bounds, delta.data(), 0.50, h.min, h.max);
      w.p90 = quantile_from_buckets(h.bounds, delta.data(), 0.90, h.min, h.max);
      w.p99 = quantile_from_buckets(h.bounds, delta.data(), 0.99, h.min, h.max);
    }
    point.stats.push_back(std::move(w));
  }

  prev_ = cur;
  prev_t_ = t;
  has_prev_ = true;
  push(std::move(point));
}

void TimeSeriesSampler::push(SamplePoint point) {
  // Caller holds mu_.
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(point));
  } else {
    ring_[head_] = std::move(point);
  }
  head_ = (head_ + 1) % capacity_;
  ++total_;
}

std::size_t TimeSeriesSampler::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t TimeSeriesSampler::total_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::vector<SamplePoint> TimeSeriesSampler::series() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SamplePoint> out;
  out.reserve(ring_.size());
  const std::size_t start = ring_.size() < capacity_ ? 0 : head_;
  for (std::size_t k = 0; k < ring_.size(); ++k) {
    out.push_back(ring_[(start + k) % ring_.size()]);
  }
  return out;
}

SamplePoint TimeSeriesSampler::latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return {};
  const std::size_t newest = (head_ + ring_.size() - 1) % ring_.size();
  return ring_[newest];
}

void TimeSeriesSampler::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
  total_ = 0;
  has_prev_ = false;
  prev_ = {};
}

void TimeSeriesSampler::write_json(std::ostream& out) const {
  const std::vector<SamplePoint> samples = series();
  out << "{\"timeline\": ";
  write_json_string(out, timeline_);
  out << ", \"samples\": [";
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const SamplePoint& point = samples[s];
    if (s > 0) out << ", ";
    out << "{\"t\": " << finite(point.t) << ", \"window\": " << finite(point.window)
        << ", \"stats\": [";
    for (std::size_t k = 0; k < point.stats.size(); ++k) {
      const WindowStat& w = point.stats[k];
      if (k > 0) out << ", ";
      out << "{\"name\": ";
      write_json_string(out, w.name);
      out << ", \"kind\": ";
      write_json_string(out, w.kind);
      out << ", \"value\": " << finite(w.value) << ", \"rate\": " << finite(w.rate);
      if (w.kind == "histogram") {
        out << ", \"window_count\": " << w.window_count << ", \"p50\": " << finite(w.p50)
            << ", \"p90\": " << finite(w.p90) << ", \"p99\": " << finite(w.p99);
      }
      out << '}';
    }
    out << "]}";
  }
  out << "]}";
}

WallSampler::WallSampler(TimeSeriesSampler& sampler, double period_s)
    : sampler_(&sampler),
      period_s_(std::max(period_s, 1e-3)),
      epoch_(std::chrono::steady_clock::now()),
      thread_([this] { loop(); }) {}

WallSampler::~WallSampler() { stop(); }

void WallSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void WallSampler::loop() {
  const auto elapsed_s = [this] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  };
  sampler_->sample(0.0);  // delta base, so the first tick has a window
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const auto period = std::chrono::duration<double>(period_s_);
    if (cv_.wait_for(lock, period, [this] { return stop_; })) break;
    lock.unlock();
    sampler_->sample(elapsed_s());
    lock.lock();
  }
  lock.unlock();
  sampler_->sample(elapsed_s());  // close the final window
}

TimeSeriesSampler& wall_sampler() {
  static TimeSeriesSampler* s = new TimeSeriesSampler("wall");  // leak: outlives exit flushes
  return *s;
}

TimeSeriesSampler& sim_sampler() {
  static TimeSeriesSampler* s = new TimeSeriesSampler("sim");  // leak: outlives exit flushes
  return *s;
}

}  // namespace reco::obs
