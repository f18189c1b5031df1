// Coflow orderings: the sigma fed into non-preemptive scheduling.
//
//  * SEBF  — Smallest-Effective-Bottleneck-First (Varys, SIGCOMM'14):
//            ascending rho(D_k); weight-agnostic.
//  * BSSI  — bottleneck primal-dual for concurrent open shop
//            (Mastrolilli et al.; adopted by Sincronia, SIGCOMM'18): a
//            combinatorial 4-approximation for total weighted CCT — the
//            Delta = 4 non-preemptive ALG_p that Reco-Mul wraps
//            (substituting for Shafiee-Ghaderi's LP-based 4-approx; see
//            DESIGN.md §4).
//  * LP    — order by the fractional completion estimates of the
//            interval-indexed LP (Qiu-Stein-Zhong) — the ordering step of
//            LP-II-GB.  Falls back to BSSI if the LP solver fails.
#pragma once

#include <cstddef>
#include <vector>

#include "core/coflow.hpp"
#include "core/support_index.hpp"

namespace reco {

enum class OrderingPolicy { kSebf, kBssi, kLp };

std::vector<int> sebf_order(const std::vector<Coflow>& coflows);
std::vector<int> bssi_order(const std::vector<Coflow>& coflows);
std::vector<int> lp_order(const std::vector<Coflow>& coflows);

std::vector<int> order_coflows(const std::vector<Coflow>& coflows, OrderingPolicy policy);

/// Reusable buffers for residual-set ordering.  Loads live in one flat
/// num_coflows x num_ports row-major array, so a long-lived scratch makes
/// per-epoch reordering allocation-free at steady state.
struct OrderingScratch {
  std::vector<double> load;        ///< flat loads, row k = coflow k's 2n ports
  std::vector<double> w;           ///< residual dual weights (BSSI)
  std::vector<char> placed;        ///< BSSI placement flags
  std::vector<double> port_total;  ///< per-port remaining load (BSSI)
  std::vector<double> key;         ///< SEBF bottleneck keys

  /// Total heap capacity currently held, in elements.
  std::size_t capacity_footprint() const {
    return load.capacity() + w.capacity() + placed.capacity() + port_total.capacity() +
           key.capacity();
  }
};

/// Order a residual set (one sparse index + weight per live coflow) into
/// `order`, a permutation of indices into `residuals`.  Loads come from
/// `row_sum_exact` / `col_sums_exact`, which match the dense Matrix scans
/// bit-for-bit, so on equal matrices this returns exactly what
/// `order_coflows` returns on the corresponding Coflow vector.  `policy`
/// is kSebf or kBssi: the interval LP wants whole Coflow objects, so no
/// residual set is ordered by kLp (OnlineCore rejects it up front).
void order_residuals_into(const std::vector<const SupportIndex*>& residuals,
                          const std::vector<double>& weights, OrderingPolicy policy,
                          OrderingScratch& scratch, std::vector<int>& order);

}  // namespace reco
