// Time-series sampler: windowed counter rates and histogram-delta
// percentiles against exact references, ring bounds, and the JSON dump.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"

namespace reco::obs {
namespace {

/// Wipes the global registry before and after so sampler tests see only
/// their own metrics.
class FreshRegistry {
 public:
  FreshRegistry() { obs::reset(); }
  ~FreshRegistry() { obs::reset(); }
};

/// Evenly spaced upper bounds: width, 2*width, ..., n*width.
std::vector<double> even_buckets(double width, int n) {
  std::vector<double> bounds(n);
  for (int k = 0; k < n; ++k) bounds[k] = width * (k + 1);
  return bounds;
}

/// Exact reference: the q-quantile position over the sorted sample set,
/// matched to quantile_from_buckets' cumulative-count convention.
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double target = q * static_cast<double>(xs.size());
  const std::size_t idx =
      std::min(xs.size() - 1,
               static_cast<std::size_t>(std::max(0.0, std::ceil(target) - 1.0)));
  return xs[idx];
}

TEST(QuantileFromBuckets, InterpolatesWithinTheHitBucket) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0, 8.0};
  // counts: one per bound + overflow.  50 obs in (1, 2], 50 in (2, 4].
  const std::uint64_t counts[] = {0, 50, 50, 0, 0};
  EXPECT_NEAR(quantile_from_buckets(bounds, counts, 0.25, 1.0, 4.0), 1.5, 1e-12);
  EXPECT_NEAR(quantile_from_buckets(bounds, counts, 0.5, 1.0, 4.0), 2.0, 1e-12);
  EXPECT_NEAR(quantile_from_buckets(bounds, counts, 0.75, 1.0, 4.0), 3.0, 1e-12);
  EXPECT_NEAR(quantile_from_buckets(bounds, counts, 1.0, 1.0, 4.0), 4.0, 1e-12);
}

TEST(QuantileFromBuckets, ClampsToObservedRangeAndHandlesEmpty) {
  const std::vector<double> bounds = {1.0, 2.0};
  const std::uint64_t empty[] = {0, 0, 0};
  EXPECT_DOUBLE_EQ(quantile_from_buckets(bounds, empty, 0.5, 0.0, -1.0), 0.0);
  // A single observation of 1.7 in (1, 2]: every quantile must be 1.7.
  const std::uint64_t one[] = {0, 1, 0};
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile_from_buckets(bounds, one, q, 1.7, 1.7), 1.7) << "q=" << q;
  }
}

TEST(HistogramQuantile, TracksExactReferenceWithinBucketWidth) {
  FreshRegistry fresh;
  Histogram& h = metrics().histogram("ts.test.latency", even_buckets(10.0, 100));
  std::vector<double> xs;
  // Deterministic skewed stream: most mass low, a heavy tail.
  for (int i = 0; i < 900; ++i) xs.push_back(5.0 + 0.05 * (i % 100));
  for (int i = 0; i < 100; ++i) xs.push_back(400.0 + 3.0 * i);
  for (const double x : xs) h.observe(x);
  std::vector<std::uint64_t> counts(h.bounds().size() + 1);
  for (std::size_t k = 0; k < h.bounds().size(); ++k) counts[k] = h.bucket_count(k);
  counts.back() = h.overflow();
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = exact_quantile(xs, q);
    // Within one bucket width (10.0) of the exact order statistic.
    const double p = quantile_from_buckets(h.bounds(), counts.data(), q, h.min(), h.max());
    EXPECT_NEAR(p, exact, 10.0) << "q=" << q;
    EXPECT_GE(p, h.min());
    EXPECT_LE(p, h.max());
  }
}

TEST(TimeSeriesSampler, WindowRatesMatchExactDeltas) {
  FreshRegistry fresh;
  Counter& c = metrics().counter("ts.test.events");
  TimeSeriesSampler sampler("test");
  sampler.sample(0.0);  // delta base
  c.inc(10.0);
  sampler.sample(2.0);  // window [0, 2]: 10 events -> 5/s
  c.inc(30.0);
  sampler.sample(4.0);  // window [2, 4]: 30 events -> 15/s

  const std::vector<SamplePoint> series = sampler.series();
  ASSERT_EQ(series.size(), 3u);
  const auto rate_of = [](const SamplePoint& p, const std::string& name) {
    for (const WindowStat& w : p.stats) {
      if (w.name == name) return w.rate;
    }
    ADD_FAILURE() << name << " missing from sample";
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(rate_of(series[0], "ts.test.events"), 0.0);  // no window yet
  EXPECT_DOUBLE_EQ(rate_of(series[1], "ts.test.events"), 5.0);
  EXPECT_DOUBLE_EQ(rate_of(series[2], "ts.test.events"), 15.0);
  EXPECT_DOUBLE_EQ(series[2].window, 2.0);
  EXPECT_DOUBLE_EQ(sampler.latest().t, 4.0);
}

TEST(TimeSeriesSampler, WindowPercentilesCoverOnlyTheWindow) {
  FreshRegistry fresh;
  Histogram& h = metrics().histogram("ts.test.lat_us", even_buckets(1.0, 200));
  TimeSeriesSampler sampler("test");
  // Window 1: 100 observations around 10us.
  for (int i = 0; i < 100; ++i) h.observe(10.0 + 0.001 * i);
  sampler.sample(1.0);
  // Window 2: 100 observations around 100us.  Its percentiles must reflect
  // ONLY these, not the lifetime mix.
  std::vector<double> w2;
  for (int i = 0; i < 100; ++i) w2.push_back(100.0 + 0.001 * i);
  for (const double x : w2) h.observe(x);
  sampler.sample(2.0);

  const SamplePoint latest = sampler.latest();
  const WindowStat* stat = nullptr;
  for (const WindowStat& w : latest.stats) {
    if (w.name == "ts.test.lat_us") stat = &w;
  }
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->window_count, 100u);
  EXPECT_DOUBLE_EQ(stat->rate, 100.0);
  for (const double p : {stat->p50, stat->p90, stat->p99}) {
    EXPECT_NEAR(p, exact_quantile(w2, 0.5), 2.0);  // all of w2 sits in ~2 buckets
  }
  EXPECT_LE(stat->p50, stat->p90);
  EXPECT_LE(stat->p90, stat->p99);
}

TEST(TimeSeriesSampler, RingIsBoundedAndOrderedOldestToNewest) {
  FreshRegistry fresh;
  TimeSeriesSampler sampler("test", 4);
  for (int i = 0; i < 10; ++i) sampler.sample(static_cast<double>(i));
  EXPECT_EQ(sampler.size(), 4u);
  EXPECT_EQ(sampler.total_samples(), 10u);
  const std::vector<SamplePoint> series = sampler.series();
  ASSERT_EQ(series.size(), 4u);
  for (std::size_t k = 0; k < series.size(); ++k) {
    EXPECT_DOUBLE_EQ(series[k].t, 6.0 + static_cast<double>(k));
  }
  sampler.clear();
  EXPECT_EQ(sampler.size(), 0u);
  EXPECT_TRUE(sampler.latest().stats.empty());
}

TEST(TimeSeriesSampler, WriteJsonIsStructurallySound) {
  FreshRegistry fresh;
  metrics().counter("ts.test.c").inc(3.0);
  metrics().histogram("ts.test.h", even_buckets(1.0, 4)).observe(2.5);
  TimeSeriesSampler sampler("test");
  sampler.sample(0.0);
  sampler.sample(1.0);
  std::ostringstream out;
  sampler.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"timeline\": \"test\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ts.test.c\""), std::string::npos);
  EXPECT_NE(json.find("\"window_count\""), std::string::npos);
  // Balanced braces/brackets — cheap structural validity without a parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(SyncTraceDropped, SurfacesTracerDropsAsACounter) {
  FreshRegistry fresh;
  obs::set_enabled(true);
  tracer().clear();
  sync_trace_dropped();  // fold any pre-test drops, then zero the counter
  metrics().counter("obs.trace.dropped_events").reset();
  const std::uint64_t base = tracer().dropped();
  const std::size_t old_cap = tracer().capacity();
  tracer().set_capacity(0);  // every record from here on drops
  tracer().sim_instant("drop-me", "test", 0.0, 0);
  tracer().sim_instant("drop-me-too", "test", 0.0, 0);
  tracer().set_capacity(old_cap);
  sync_trace_dropped();
  EXPECT_DOUBLE_EQ(metrics().counter("obs.trace.dropped_events").value(),
                   static_cast<double>(tracer().dropped() - base));
  EXPECT_GE(tracer().dropped() - base, 2u);
  obs::set_enabled(false);
}

}  // namespace
}  // namespace reco::obs
