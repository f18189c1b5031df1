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

/// reco_sin(demand, delta)'s plan, one assignment per next(): the first k
/// pulls are its first k assignments, bit for bit, and a caller that stops
/// early (a plan the next fault discards) peels only what it pulled.  The
/// constructor runs Alg. 1 up to the peel (ingest, regularize, stuff) under
/// a sched.reco_sin span; each pull runs under a bvn.peel span.  Holds a
/// PeelCursor, so it is built in place.
class RecoSinCursor {
 public:
  RecoSinCursor(Matrix demand, Time delta);

  /// The next assignment, or nullopt once the plan is spent.
  std::optional<CircuitAssignment> next();

 private:
  std::optional<PeelCursor> peel_;  ///< empty when the demand is all zero
};

/// Recovery planning, one assignment per next(): re-plan `residual` on the
/// surviving ports only.  Demand on a failed ingress row / egress column is
/// masked out (it is stranded until the port is repaired), the remainder
/// goes to a RecoSinCursor, and each pulled assignment loses the circuits
/// the stuffing stage placed on failed ports — padding, never demand — so
/// none asks the fabric to light a dark port; assignments left empty are
/// skipped.  The masks are copied at construction and prune every pull.
/// Empty masks (or masks shorter than the fabric) treat the unnamed ports
/// as up.  Always plans with kMaxMinAmortized.  Built in place.
class SurvivingCursor {
 public:
  SurvivingCursor(const Matrix& residual, std::vector<char> failed_in,
                  std::vector<char> failed_out, Time delta);

  /// The next pruned, non-empty assignment, or nullopt once the plan is spent.
  std::optional<CircuitAssignment> next();

 private:
  std::vector<char> failed_in_;
  std::vector<char> failed_out_;
  std::optional<RecoSinCursor> plan_;  ///< emplaced inside the constructor's span
};

}  // namespace reco
