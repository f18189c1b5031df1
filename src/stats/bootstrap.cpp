#include "stats/bootstrap.hpp"

#include <algorithm>
#include <cmath>

#include "stats/summary.hpp"

namespace reco {

namespace {

// Local splitmix64 stream: reco_stats must stay below reco_trace in the
// layer graph, so it cannot use trace::Rng.  Quality is ample for
// resampling indices, and the stream is fully determined by the seed.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform index in [0, n) via Lemire's multiply-shift reduction (biased
  /// by < 2^-32 for campaign-scale n — irrelevant for resampling).
  std::size_t index(std::size_t n) {
    const std::uint64_t x = next() >> 32;
    return static_cast<std::size_t>((x * static_cast<std::uint64_t>(n)) >> 32);
  }
};

}  // namespace

DistributionSummary summarize_distribution(const std::vector<double>& xs,
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
  const double confidence =
      std::min(0.999999, std::max(1e-6, options.confidence));
  const double lo_pct = 100.0 * (1.0 - confidence) / 2.0;
  const double hi_pct = 100.0 - lo_pct;

  SplitMix64 rng{options.seed};
  std::vector<double> resample(xs.size());
  std::vector<double> means;
  std::vector<double> p50s;
  std::vector<double> p99s;
  means.reserve(static_cast<std::size_t>(resamples));
  p50s.reserve(static_cast<std::size_t>(resamples));
  p99s.reserve(static_cast<std::size_t>(resamples));
  for (int b = 0; b < resamples; ++b) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      resample[i] = xs[rng.index(xs.size())];
    }
    // The mean first, in draw order; then one sort serves both percentiles.
    means.push_back(mean(resample));
    std::sort(resample.begin(), resample.end());
    p50s.push_back(percentile_sorted(resample, 50.0));
    p99s.push_back(percentile_sorted(resample, 99.0));
  }
  std::sort(means.begin(), means.end());
  std::sort(p50s.begin(), p50s.end());
  std::sort(p99s.begin(), p99s.end());
  s.mean_lo = percentile_sorted(means, lo_pct);
  s.mean_hi = percentile_sorted(means, hi_pct);
  s.p50_lo = percentile_sorted(p50s, lo_pct);
  s.p50_hi = percentile_sorted(p50s, hi_pct);
  s.p99_lo = percentile_sorted(p99s, lo_pct);
  s.p99_hi = percentile_sorted(p99s, hi_pct);
  return s;
}

}  // namespace reco
