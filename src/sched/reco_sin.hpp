// Reco-Sin (Algorithm 1): regularization-based single-coflow scheduling.
//
//   1. regularize D (round entries up to multiples of delta);
//   2. stuff to a delta-granular doubly stochastic matrix;
//   3. BvN-decompose with max-min matchings.
//
// Every coefficient is >= delta, so reconfiguration time never exceeds
// transmission time (Lemma 1) and the executed CCT is at most 2x optimal
// (Theorem 2) — and usually much closer, because the executor stops each
// establishment as soon as the *original* demands on it finish.
#pragma once

#include <vector>

#include "bvn/bvn.hpp"
#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/types.hpp"

namespace reco {

/// Build the Reco-Sin circuit scheduling for one coflow.  `policy` picks
/// the BvN extraction; kFirstMatching exists for the regularization
/// ablation, which swaps Alg. 1's max-min matchings for plain peeling.
CircuitSchedule reco_sin(const Matrix& demand, Time delta,
                         BvnPolicy policy = BvnPolicy::kMaxMinAmortized);

/// Recovery planning: re-plan `residual` on the surviving ports only.
/// Demand on a failed ingress row / egress column is masked out (it is
/// stranded until the port is repaired), the remainder goes through the
/// normal Reco-Sin pipeline, and circuits the stuffing stage placed on
/// failed ports — padding, never demand — are pruned from the result, so
/// no assignment in the returned schedule asks the fabric to light a dark
/// port.  Empty masks (or masks shorter than the fabric) treat the
/// unnamed ports as up.  Always plans with kMaxMinAmortized.
CircuitSchedule reco_sin_surviving(const Matrix& residual, const std::vector<char>& failed_in,
                                   const std::vector<char>& failed_out, Time delta);

}  // namespace reco
