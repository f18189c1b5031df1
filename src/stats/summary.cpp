#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace reco {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
  const double rank = p / 100.0 * (static_cast<double>(sorted.size()) - 1.0);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<std::pair<double, double>> empirical_cdf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  std::vector<std::pair<double, double>> cdf;
  cdf.reserve(xs.size());
  const double inv = xs.empty() ? 0.0 : 1.0 / static_cast<double>(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    cdf.emplace_back(xs[i], static_cast<double>(i + 1) * inv);
  }
  return cdf;
}

double normalized_ratio(const std::vector<double>& numer, const std::vector<double>& denom) {
  const double d = mean(denom);
  return d > 0.0 ? mean(numer) / d : 0.0;
}

std::vector<double> elementwise_ratio(const std::vector<double>& numer,
                                      const std::vector<double>& denom) {
  std::vector<double> out;
  const std::size_t n = std::min(numer.size(), denom.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (denom[i] > 0.0) out.push_back(numer[i] / denom[i]);
  }
  return out;
}

}  // namespace reco
