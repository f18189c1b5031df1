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

double normalized_ratio(const std::vector<double>& numer, const std::vector<double>& denom) {
  const double d = mean(denom);
  return d > 0.0 ? mean(numer) / d : 0.0;
}

}  // namespace reco
