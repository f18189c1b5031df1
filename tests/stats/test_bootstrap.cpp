// Percentile-bootstrap distribution summaries: degenerate inputs, CI
// ordering and containment, and byte-for-byte determinism — the report
// layer of the reliability campaigns must be reproducible down to the
// last CI bound.
#include "stats/bootstrap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/summary.hpp"

namespace reco {
namespace {

/// Deterministic skewed samples (no RNG: the test fixture itself must not
/// depend on stream state).
std::vector<double> skewed_samples(int n) {
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double u = (i + 0.5) / n;
    xs.push_back(u * u * 10.0 + 0.1 * std::sin(12.9898 * i));
  }
  return xs;
}

TEST(Bootstrap, EmptyInputIsAllZero) {
  const DistributionSummary s = summarize_distribution({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_lo, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_hi, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(Bootstrap, SingleSampleCollapsesEveryCIToThePoint) {
  const DistributionSummary s = summarize_distribution({2.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.mean_lo, 2.5);
  EXPECT_DOUBLE_EQ(s.mean_hi, 2.5);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
  EXPECT_DOUBLE_EQ(s.p50_lo, 2.5);
  EXPECT_DOUBLE_EQ(s.p50_hi, 2.5);
  EXPECT_DOUBLE_EQ(s.p99, 2.5);
  EXPECT_DOUBLE_EQ(s.p99_lo, 2.5);
  EXPECT_DOUBLE_EQ(s.p99_hi, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 2.5);
  EXPECT_DOUBLE_EQ(s.max, 2.5);
}

TEST(Bootstrap, ConstantSamplesHaveZeroWidthCIs) {
  const std::vector<double> xs(40, 7.0);
  const DistributionSummary s = summarize_distribution(xs);
  EXPECT_EQ(s.count, 40u);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.mean_lo, 7.0);
  EXPECT_DOUBLE_EQ(s.mean_hi, 7.0);
  EXPECT_DOUBLE_EQ(s.p50_lo, 7.0);
  EXPECT_DOUBLE_EQ(s.p50_hi, 7.0);
  EXPECT_DOUBLE_EQ(s.p99_lo, 7.0);
  EXPECT_DOUBLE_EQ(s.p99_hi, 7.0);
}

TEST(Bootstrap, CIsAreOrderedAndContained) {
  const std::vector<double> xs = skewed_samples(64);
  const DistributionSummary s = summarize_distribution(xs);
  EXPECT_EQ(s.count, 64u);
  // Point estimates respect the distribution's shape.
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p99);
  EXPECT_LE(s.p99, s.max);
  // Every CI brackets its point estimate...
  EXPECT_LE(s.mean_lo, s.mean);
  EXPECT_LE(s.mean, s.mean_hi);
  EXPECT_LE(s.p50_lo, s.p50);
  EXPECT_LE(s.p50, s.p50_hi);
  EXPECT_LE(s.p99_lo, s.p99);
  EXPECT_LE(s.p99, s.p99_hi);
  // ...and is non-degenerate for genuinely noisy data.
  EXPECT_LT(s.mean_lo, s.mean_hi);
  EXPECT_LT(s.p50_lo, s.p50_hi);
  // Resampled statistics can never leave the sample range.
  EXPECT_GE(s.mean_lo, s.min);
  EXPECT_LE(s.mean_hi, s.max);
  EXPECT_GE(s.p99_lo, s.min);
  EXPECT_LE(s.p99_hi, s.max);
}

TEST(Bootstrap, ByteIdenticalAcrossCalls) {
  const std::vector<double> xs = skewed_samples(48);
  const DistributionSummary a = summarize_distribution(xs);
  const DistributionSummary b = summarize_distribution(xs);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.mean_lo, b.mean_lo);
  EXPECT_EQ(a.mean_hi, b.mean_hi);
  EXPECT_EQ(a.p50_lo, b.p50_lo);
  EXPECT_EQ(a.p50_hi, b.p50_hi);
  EXPECT_EQ(a.p99_lo, b.p99_lo);
  EXPECT_EQ(a.p99_hi, b.p99_hi);
}

TEST(Bootstrap, SeedChangesResamplingButNotPointEstimates) {
  const std::vector<double> xs = skewed_samples(48);
  BootstrapOptions a;
  BootstrapOptions b;
  b.seed = a.seed + 1;
  const DistributionSummary sa = summarize_distribution(xs, a);
  const DistributionSummary sb = summarize_distribution(xs, b);
  EXPECT_EQ(sa.mean, sb.mean);
  EXPECT_EQ(sa.p50, sb.p50);
  EXPECT_EQ(sa.p99, sb.p99);
  EXPECT_EQ(sa.min, sb.min);
  EXPECT_EQ(sa.max, sb.max);
  // The resampled bounds move with the stream (not a strict requirement of
  // the estimator, but with B=1000 and noisy data a collision would itself
  // be a bug in the stream seeding).
  EXPECT_TRUE(sa.mean_lo != sb.mean_lo || sa.mean_hi != sb.mean_hi ||
              sa.p50_lo != sb.p50_lo || sa.p50_hi != sb.p50_hi);
}

TEST(Bootstrap, WiderConfidenceWidensTheInterval) {
  const std::vector<double> xs = skewed_samples(48);
  BootstrapOptions narrow;
  narrow.confidence = 0.5;
  BootstrapOptions wide;
  wide.confidence = 0.99;
  const DistributionSummary sn = summarize_distribution(xs, narrow);
  const DistributionSummary sw = summarize_distribution(xs, wide);
  EXPECT_LE(sw.mean_lo, sn.mean_lo);
  EXPECT_GE(sw.mean_hi, sn.mean_hi);
}

/// The by-value summary the one-sort one must match: every percentile
/// sorts its own copy of the resample or of the statistic vector.  The
/// splitmix64 stream and Lemire reduction repeat summarize_distribution's.
DistributionSummary summarize_by_value(const std::vector<double>& xs,
                                       const BootstrapOptions& options) {
  DistributionSummary s;
  if (xs.empty()) return s;
  s.count = xs.size();
  s.mean = mean(xs);
  s.p50 = percentile(xs, 50.0);
  s.p99 = percentile(xs, 99.0);
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  if (xs.size() == 1) {
    s.mean_lo = s.mean_hi = s.mean;
    s.p50_lo = s.p50_hi = s.p50;
    s.p99_lo = s.p99_hi = s.p99;
    return s;
  }
  const int resamples = std::max(1, options.resamples);
  const double confidence = std::min(0.999999, std::max(1e-6, options.confidence));
  const double lo_pct = 100.0 * (1.0 - confidence) / 2.0;
  const double hi_pct = 100.0 - lo_pct;
  std::uint64_t state = options.seed;
  const auto draw = [&](std::size_t n) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    const std::uint64_t x = (z ^ (z >> 31)) >> 32;
    return static_cast<std::size_t>((x * static_cast<std::uint64_t>(n)) >> 32);
  };
  std::vector<double> resample(xs.size());
  std::vector<double> means;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (int b = 0; b < resamples; ++b) {
    for (std::size_t i = 0; i < xs.size(); ++i) resample[i] = xs[draw(xs.size())];
    means.push_back(mean(resample));
    p50s.push_back(percentile(resample, 50.0));
    p99s.push_back(percentile(resample, 99.0));
  }
  s.mean_lo = percentile(means, lo_pct);
  s.mean_hi = percentile(means, hi_pct);
  s.p50_lo = percentile(p50s, lo_pct);
  s.p50_hi = percentile(p50s, hi_pct);
  s.p99_lo = percentile(p99s, lo_pct);
  s.p99_hi = percentile(p99s, hi_pct);
  return s;
}

TEST(Bootstrap, OneSortPerResampleMatchesByValuePercentiles) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  int cases = 0;
  for (const int n : {2, 3, 7, 48, 129}) {
    // Skewed samples, and the same rounded to a coarse grid so that the
    // sorts meet ties.
    std::vector<double> tied = skewed_samples(n);
    for (double& x : tied) x = std::round(x);
    for (const std::vector<double>& xs : {skewed_samples(n), tied}) {
      for (const int resamples : {1, 2, 17, 300}) {
        for (const double confidence : {0.5, 0.9, 0.95, 0.999}) {
          BootstrapOptions options;
          options.resamples = resamples;
          options.confidence = confidence;
          options.seed = 0x5eed0002u + static_cast<std::uint64_t>(n);
          const DistributionSummary got = summarize_distribution(xs, options);
          const DistributionSummary want = summarize_by_value(xs, options);
          const std::string where = "n=" + std::to_string(n) + " resamples=" +
                                    std::to_string(resamples) +
                                    " confidence=" + std::to_string(confidence);
          EXPECT_EQ(got.count, want.count) << where;
          EXPECT_EQ(bits(got.mean), bits(want.mean)) << where;
          EXPECT_EQ(bits(got.mean_lo), bits(want.mean_lo)) << where;
          EXPECT_EQ(bits(got.mean_hi), bits(want.mean_hi)) << where;
          EXPECT_EQ(bits(got.p50), bits(want.p50)) << where;
          EXPECT_EQ(bits(got.p50_lo), bits(want.p50_lo)) << where;
          EXPECT_EQ(bits(got.p50_hi), bits(want.p50_hi)) << where;
          EXPECT_EQ(bits(got.p99), bits(want.p99)) << where;
          EXPECT_EQ(bits(got.p99_lo), bits(want.p99_lo)) << where;
          EXPECT_EQ(bits(got.p99_hi), bits(want.p99_hi)) << where;
          EXPECT_EQ(bits(got.min), bits(want.min)) << where;
          EXPECT_EQ(bits(got.max), bits(want.max)) << where;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 160);
}

}  // namespace
}  // namespace reco
