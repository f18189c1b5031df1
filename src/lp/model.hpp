// Interval-indexed LP relaxation for multi-coflow ordering, after
// Qiu-Stein-Zhong (SPAA'15) — the core of the LP-II-GB baseline (Sec. V-B).
//
// Geometric time intervals tau_0 < tau_1 < ... < tau_T; variable x_{k,t}
// is the fraction of coflow k that completes within interval t:
//   min  sum_k w_k * sum_t tau_{t-1} x_{k,t}
//   s.t. sum_t x_{k,t} = 1                       for every coflow k
//        sum_k L_p(k) * sum_{s<=t} x_{k,s} <= tau_t   for every port p, t
//        x_{k,t} = 0 whenever tau_t < rho_k     (can't beat own bottleneck)
// The fractional completion estimate C_k = sum_t tau_t x_{k,t} induces the
// scheduling order.  The grid doubles (tau_{t+1} = 2 tau_t), and instances
// beyond 6000 variables x_{k,t} are refused rather than solved.
#pragma once

#include <vector>

#include "core/coflow.hpp"
#include "lp/simplex.hpp"

namespace reco::lp {

struct IntervalLpResult {
  SolveStatus status = SolveStatus::kIterLimit;
  /// Fractional completion-time estimate per coflow (same indexing as the
  /// input vector).  Only meaningful when status == kOptimal.
  std::vector<double> est_completion;
  /// Interval right endpoints tau_1..tau_T actually used.
  std::vector<double> interval_ends;
};

/// Build and solve the relaxation for the given coflows.  An instance with
/// more than 6000 variables is not built (the dense simplex would be
/// impractically slow): the status is kIterLimit, and the caller is
/// expected to fall back to a combinatorial ordering.
IntervalLpResult solve_interval_indexed_lp(const std::vector<Coflow>& coflows);

}  // namespace reco::lp
