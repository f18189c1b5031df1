// MetricsRegistry: handle stability, bucket-edge semantics, kind
// conflicts, exact totals under concurrent mutation from the runtime
// ThreadPool (the TSan CI job runs this suite at RECO_THREADS=8), and the
// CSV snapshot format.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace reco::obs {
namespace {

TEST(Counter, IncValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0.0);
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  c.reset();
  EXPECT_EQ(c.value(), 0.0);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  // Bucket k counts x <= bound[k]: values exactly on an edge stay in that
  // bucket, the first value above the last bound overflows.
  for (const double x : {0.5, 1.0}) h.observe(x);    // bucket 0
  for (const double x : {1.5, 2.0}) h.observe(x);    // bucket 1
  for (const double x : {2.001, 4.0}) h.observe(x);  // bucket 2
  h.observe(4.001);                                  // overflow

  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 4.001);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 2.001 + 4.0 + 4.001, 1e-9);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{1.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, Pow2Buckets) {
  const std::vector<double> b = pow2_buckets(8.0);
  EXPECT_EQ(b, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
}

TEST(MetricsRegistry, HandlesAreFindOrCreate) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
  // First registration of a histogram defines the buckets.
  Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  Histogram& h2 = reg.histogram("h", {8.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(MetricsRegistry, KindConflictThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.histogram("x", {1.0}), std::logic_error);
}

TEST(MetricsRegistry, ResetKeepsHandlesValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.inc(7.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0.0);
  c.inc();
  EXPECT_DOUBLE_EQ(reg.counter("c").value(), 1.0);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  // Fan increments out across the runtime pool; fetch_add on small
  // integers is exact in double, so the totals must be exact too.
  const int old_threads = runtime::thread_count();
  runtime::set_thread_count(4);
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  Histogram& h = reg.histogram("sizes", {1.0, 2.0, 4.0});

  constexpr int kN = 20000;
  runtime::parallel_for(kN, [&](int i) {
    c.inc();
    h.observe(static_cast<double>(i % 8));
  });

  EXPECT_DOUBLE_EQ(c.value(), static_cast<double>(kN));
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kN));
  // i%8 in 0..7: 0,1 -> bucket 0; 2 -> bucket 1; 3,4 -> bucket 2; 5,6,7 -> overflow.
  EXPECT_EQ(h.bucket_count(0), static_cast<std::uint64_t>(kN / 8 * 2));
  EXPECT_EQ(h.bucket_count(1), static_cast<std::uint64_t>(kN / 8));
  EXPECT_EQ(h.bucket_count(2), static_cast<std::uint64_t>(kN / 8 * 2));
  EXPECT_EQ(h.overflow(), static_cast<std::uint64_t>(kN / 8 * 3));
  runtime::set_thread_count(old_threads);
}

TEST(MetricsRegistry, SnapshotAndCsv) {
  MetricsRegistry reg;
  reg.counter("b.count").inc(3.0);
  reg.counter("a.level").inc(1.5);
  reg.histogram("c.hist", {2.0}).observe(1.0);

  const std::vector<MetricSample> snap = reg.snapshot();
  ASSERT_FALSE(snap.empty());
  // Sorted by name: a.level, b.count, then the c.hist statistics.
  EXPECT_EQ(snap[0].name, "a.level");
  EXPECT_EQ(snap[0].kind, "counter");
  EXPECT_EQ(snap[1].name, "b.count");
  EXPECT_DOUBLE_EQ(snap[1].value, 3.0);

  std::ostringstream out;
  reg.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("metric,kind,field,value"), std::string::npos);
  EXPECT_NE(csv.find("b.count,counter,value,3"), std::string::npos);
  EXPECT_NE(csv.find("c.hist,histogram,count,1"), std::string::npos);
  EXPECT_NE(csv.find("c.hist,histogram,le_2,1"), std::string::npos);
}

}  // namespace
}  // namespace reco::obs
