// Metrics registry: named counters and fixed-bucket histograms
// with cheap stable handles for hot paths.
//
// Design constraints, in priority order:
//  1. *Zero schedule perturbation*: instruments only read pipeline state
//     and accumulate numbers — no metric ever feeds back into a decision.
//  2. *Hot-path cost*: a handle is a reference to an atomic slot, so an
//     instrumented site is `if (obs::enabled()) counter.inc()` — one
//     relaxed load + branch when telemetry is off.  Look names up once
//     (function-local static reference), never per event.
//  3. *Thread safety*: all mutators are lock-free atomics (the pipeline
//     fans out across the runtime ThreadPool); only registration and
//     snapshotting take the registry mutex.
//
// Handles returned by `counter()` / `histogram()` are valid
// for the registry's lifetime: slots are heap-allocated once and never
// moved, and `reset()` zeroes values without invalidating references.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace reco::obs {

/// Monotonically increasing sum (doubles, so one type serves event counts
/// and accumulated quantities like padding seconds).
class Counter {
 public:
  void inc(double d = 1.0) { v_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket k counts observations with
/// `x <= bound[k]` (first matching bucket); anything above the last bound
/// lands in the overflow bucket.  Also tracks count / sum / min / max so a
/// snapshot carries the mean and the range.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket_count(std::size_t k) const {
    return buckets_[k].load(std::memory_order_relaxed);
  }
  std::uint64_t overflow() const {
    return buckets_[bounds_.size()].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;
  void reset();

 private:
  std::vector<double> bounds_;  // ascending upper bounds
  // bounds_.size() buckets + 1 overflow slot at the back.
  std::unique_ptr<std::atomic<std::uint64_t>[]> storage_;
  std::atomic<std::uint64_t>* buckets_;  // alias of storage_ for readability
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Power-of-two upper bounds 1, 2, 4, ... up to and including `hi` —
/// the standard bucket layout for counts (nnz, path lengths, rounds).
std::vector<double> pow2_buckets(double hi);

/// q-quantile (0 < q <= 1) of a bucketed distribution: `counts` holds one
/// slot per bound plus the overflow slot at the back (`bounds.size() + 1`
/// entries); bucket k counts observations in (bounds[k-1], bounds[k]] with
/// an implicit lower edge of 0 for bucket 0.  Linear interpolation within
/// the target bucket; a quantile landing in the overflow bucket returns
/// `observed_max`.  The result is clamped to [observed_min, observed_max]
/// when that interval is non-empty (pass +inf/-inf to skip clamping, e.g.
/// for windowed deltas where the extremes are unknown).  0 on zero counts.
/// The one place percentile math lives: the time-series sampler and the
/// decision-latency recorder both delegate here.
double quantile_from_buckets(const std::vector<double>& bounds, const std::uint64_t* counts,
                             double q, double observed_min, double observed_max);

/// One flattened value of a metric snapshot: histograms expand to one
/// sample per statistic (count, sum, min, max, le_<bound>..., overflow).
struct MetricSample {
  std::string name;
  std::string kind;   ///< "counter" | "histogram"
  std::string field;  ///< "value" for scalars; statistic name for histograms
  double value = 0.0;
};

/// Structured histogram state at snapshot time: raw per-bucket counts
/// (overflow last, so `counts.size() == bounds.size() + 1`) plus the
/// scalar statistics.  Consumers that need bucket math — the Prometheus
/// exporter's cumulative buckets, the sampler's windowed deltas — use
/// this instead of re-parsing the flattened le_* fields.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Typed snapshot of the whole registry, each section sorted by name.
struct RegistrySnapshot {
  std::vector<MetricSample> counters;  ///< kind == "counter"
  std::vector<HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  /// Find-or-create; the returned reference is stable for the registry's
  /// lifetime.  A name registers as exactly one kind (first call wins;
  /// re-registering as a different kind throws std::logic_error).
  Counter& counter(const std::string& name);
  /// `bounds` must be non-empty and ascending; only the first registration
  /// of a name defines the buckets.
  Histogram& histogram(const std::string& name, const std::vector<double>& bounds);

  /// Zero every value.  Registrations (and outstanding handles) survive.
  void reset();

  /// All metrics, flattened, sorted by (name, field-registration order).
  std::vector<MetricSample> snapshot() const;

  /// Typed snapshot: scalars plus raw histogram bucket counts (see
  /// RegistrySnapshot) — the exporter/sampler entry point.
  RegistrySnapshot structured_snapshot() const;

  /// Compact CSV dump (`metric,kind,field,value`) via the stats/csv
  /// escaping helpers.
  void write_csv(std::ostream& out) const;

 private:
  enum class Kind { kCounter, kHistogram };
  struct Slot {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };

  Slot& find_or_create(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
};

}  // namespace reco::obs
