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

#include <optional>
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

/// Recovery planning, one assignment per next(): re-plan `residual` on the
/// surviving ports only.  Demand on a failed ingress row / egress column is
/// masked out (it is stranded until the port is repaired), the remainder
/// goes through the normal Reco-Sin pipeline up to a PeelCursor, and each
/// pulled assignment loses the circuits the stuffing stage placed on failed
/// ports — padding, never demand — so none asks the fabric to light a dark
/// port; assignments left empty are skipped.  The masks are copied at
/// construction and prune every pull.  Empty masks (or masks shorter than
/// the fabric) treat the unnamed ports as up.  Always plans with
/// kMaxMinAmortized.  Holds a PeelCursor, so it is built in place.
class SurvivingCursor {
 public:
  SurvivingCursor(const Matrix& residual, std::vector<char> failed_in,
                  std::vector<char> failed_out, Time delta);

  /// The next pruned, non-empty assignment, or nullopt once the plan is spent.
  std::optional<CircuitAssignment> next();

 private:
  std::vector<char> failed_in_;
  std::vector<char> failed_out_;
  std::optional<PeelCursor> peel_;  ///< empty when no surviving demand is left
};

/// The whole recovery plan: SurvivingCursor drained.
CircuitSchedule reco_sin_surviving(const Matrix& residual, const std::vector<char>& failed_in,
                                   const std::vector<char>& failed_out, Time delta);

}  // namespace reco
