#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "stats/csv.hpp"

namespace reco::obs {

namespace {

/// Lock-free monotone update for min/max slots.
void atomic_min(std::atomic<double>& slot, double x) {
  double cur = slot.load(std::memory_order_relaxed);
  while (x < cur && !slot.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}
void atomic_max(std::atomic<double>& slot, double x) {
  double cur = slot.load(std::memory_order_relaxed);
  while (x > cur && !slot.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

std::string fmt_value(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: bounds must be non-empty");
  if (std::adjacent_find(bounds_.begin(), bounds_.end(),
                         [](double a, double b) { return a >= b; }) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must be strictly ascending");
  }
  storage_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  buckets_ = storage_.get();
  reset();
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const std::size_t k = static_cast<std::size_t>(it - bounds_.begin());  // == size() -> overflow
  buckets_[k].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

void Histogram::reset() {
  for (std::size_t k = 0; k <= bounds_.size(); ++k) {
    buckets_[k].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

std::vector<double> pow2_buckets(double hi) {
  std::vector<double> bounds;
  for (double b = 1.0; b < hi; b *= 2.0) bounds.push_back(b);
  bounds.push_back(hi);
  return bounds;
}

double quantile_from_buckets(const std::vector<double>& bounds, const std::uint64_t* counts,
                             double q, double observed_min, double observed_max) {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k <= bounds.size(); ++k) total += counts[k];
  if (total == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double target = q * static_cast<double>(total);
  const bool clamp = observed_min <= observed_max;
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    const std::uint64_t c = counts[k];
    if (static_cast<double>(cum + c) >= target && c > 0) {
      const double lo = k == 0 ? std::min(0.0, bounds[0]) : bounds[k - 1];
      const double hi = bounds[k];
      double v = lo + (hi - lo) * (target - static_cast<double>(cum)) / static_cast<double>(c);
      if (clamp) v = std::min(std::max(v, observed_min), observed_max);
      return v;
    }
    cum += c;
  }
  // Target rank lives in the overflow bucket: the observed max is the best
  // (and only bounded) estimate; fall back to the last bound without one.
  return clamp ? observed_max : bounds.back();
}

MetricsRegistry::Slot& MetricsRegistry::find_or_create(const std::string& name, Kind kind) {
  // Caller holds mu_.
  const auto it = slots_.find(name);
  if (it != slots_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("MetricsRegistry: '" + name + "' already registered as another kind");
    }
    return it->second;
  }
  Slot slot;
  slot.kind = kind;
  return slots_.emplace(name, std::move(slot)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = find_or_create(name, Kind::kCounter);
  if (!slot.counter) slot.counter = std::make_unique<Counter>();
  return *slot.counter;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = find_or_create(name, Kind::kHistogram);
  if (!slot.histogram) slot.histogram = std::make_unique<Histogram>(bounds);
  return *slot.histogram;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, slot] : slots_) {
    if (slot.counter) slot.counter->reset();
    if (slot.histogram) slot.histogram->reset();
  }
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  for (const auto& [name, slot] : slots_) {
    switch (slot.kind) {
      case Kind::kCounter:
        out.push_back({name, "counter", "value", slot.counter->value()});
        break;
      case Kind::kHistogram: {
        const Histogram& h = *slot.histogram;
        out.push_back({name, "histogram", "count", static_cast<double>(h.count())});
        out.push_back({name, "histogram", "sum", h.sum()});
        out.push_back({name, "histogram", "min", h.min()});
        out.push_back({name, "histogram", "max", h.max()});
        for (std::size_t k = 0; k < h.bounds().size(); ++k) {
          out.push_back({name, "histogram", "le_" + fmt_value(h.bounds()[k]),
                         static_cast<double>(h.bucket_count(k))});
        }
        out.push_back({name, "histogram", "overflow", static_cast<double>(h.overflow())});
        break;
      }
    }
  }
  return out;
}

RegistrySnapshot MetricsRegistry::structured_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot out;
  for (const auto& [name, slot] : slots_) {
    switch (slot.kind) {
      case Kind::kCounter:
        out.counters.push_back({name, "counter", "value", slot.counter->value()});
        break;
      case Kind::kHistogram: {
        const Histogram& h = *slot.histogram;
        HistogramSnapshot snap;
        snap.name = name;
        snap.bounds = h.bounds();
        snap.counts.resize(snap.bounds.size() + 1);
        for (std::size_t k = 0; k <= snap.bounds.size(); ++k) snap.counts[k] = h.bucket_count(k);
        snap.count = h.count();
        snap.sum = h.sum();
        snap.min = h.min();
        snap.max = h.max();
        out.histograms.push_back(std::move(snap));
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  write_csv_row(out, {"metric", "kind", "field", "value"});
  for (const MetricSample& s : snapshot()) {
    write_csv_row(out, {s.name, s.kind, s.field, fmt_value(s.value)});
  }
}

}  // namespace reco::obs
