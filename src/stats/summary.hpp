// Descriptive statistics used by every experiment: means, percentiles
// (the paper reports avg and 95-percentile) and normalized ratios.
#pragma once

#include <vector>

namespace reco {

double mean(const std::vector<double>& xs);

/// Percentile by linear interpolation between the two closest ranks: the
/// value at rank p/100 * (n - 1) of the sorted samples, p in [0, 100]
/// (std::invalid_argument otherwise).  Empty input -> 0.
double percentile(std::vector<double> xs, double p);

/// percentile() of samples already sorted ascending, without a copy.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// The paper's headline metric:  mean(numer) / mean(denom), i.e. "how many
/// times slower than the reference is this scheme, on average".  Returns 0
/// when the reference mean is 0.
double normalized_ratio(const std::vector<double>& numer, const std::vector<double>& denom);

}  // namespace reco
