// Reference semantics of the sparse regularize(): the entry-by-entry build
// it used before it rounded an index's values in place.  Each rounded value
// is written with SupportIndex::set into a fresh zeros(n), row by row in
// ascending column order, so the result's support, values and incremental
// sums are what set() makes of them.  A test oracle, not library code:
// tests/property/test_plan_construction.cpp asserts that regularize()
// leaves the same support, values, sums and regularize.* counters, bit for
// bit.  Do not "simplify" it onto regularize(): its value is being the
// independent reference.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/support_index.hpp"
#include "core/types.hpp"
#include "obs/obs.hpp"

namespace reco::oracle {

inline SupportIndex regularize_by_set(const SupportIndex& demand, Time quantum) {
  if (!(quantum > 0.0) || !std::isfinite(quantum)) {
    throw std::invalid_argument("regularize: quantum must be positive and finite");
  }
  const auto round_up = [quantum](double x) {
    const double k = std::ceil(x / quantum - kTimeEps);
    return std::max(1.0, k) * quantum;
  };
  SupportIndex out = SupportIndex::zeros(demand.n());
  Time padding = 0.0;
  for (int i = 0; i < demand.n(); ++i) {
    for (const int j : demand.row_support(i)) {
      const double rounded = round_up(demand.at(i, j));
      padding += rounded - demand.at(i, j);
      out.set(i, j, rounded);
    }
  }
  if (obs::enabled()) {
    obs::metrics().counter("regularize.calls").inc();
    obs::metrics().counter("regularize.padding_total").inc(padding);
    obs::metrics().counter("regularize.entries").inc(static_cast<double>(demand.nnz()));
    obs::metrics().counter("regularize.delta_nnz_bound").inc(quantum * demand.nnz());
  }
  return out;
}

}  // namespace reco::oracle
