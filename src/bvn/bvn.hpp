// Birkhoff-von-Neumann decomposition of a doubly stochastic matrix into
// permutation matrices with coefficients — equivalently, into a circuit
// scheduling (each permutation is a circuit establishment, its coefficient
// the planned duration).  Both extraction policies run on one peel engine,
// PeelCursor (an IncrementalMatcher repaired round by round, with
// cover_decompose finishing any float-drift residue), which hands out one
// assignment per pull; bvn_decompose drains it:
//
//  * kFirstMatching   — classic Birkhoff peeling: any perfect matching on
//                       the nonzero support, coefficient = its min entry.
//                       This is the Theorem-1 strawman and LP-II-GB's
//                       intra-coflow method.
//  * kMaxMinAmortized — descending power-of-two threshold with incremental
//                       matching repair; every extracted matching's min
//                       entry is within 2x of that round's true bottleneck
//                       (max-min) optimum, at amortized near-linear cost.
//                       This is the "max-min matching similar to [7]" of
//                       Alg. 1, and the policy Reco-Sin uses by default.
#pragma once

#include <cstddef>
#include <optional>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/support_index.hpp"
#include "matching/incremental_matcher.hpp"

namespace reco {

enum class BvnPolicy {
  kFirstMatching,
  kMaxMinAmortized,
};

/// The BvN peel, one assignment per next().  Assignment k depends only on
/// the peel state after assignment k - 1, so the first k pulls are the first
/// k assignments of bvn_decompose's schedule, bit for bit, and a caller that
/// may stop early (a recovery plan the next fault discards) pays only for
/// what it pulls.  The matcher points into the owned matrix, so the cursor
/// can be neither copied nor moved: build it in place.
class PeelCursor {
 public:
  /// Takes `m` (must be doubly stochastic; throws std::invalid_argument
  /// otherwise).  The matcher is built on the first pull.
  PeelCursor(SupportIndex m, BvnPolicy policy);
  PeelCursor(const PeelCursor&) = delete;
  PeelCursor& operator=(const PeelCursor&) = delete;

  /// The next assignment, or nullopt once the matrix is spent.  If the
  /// matching stops being perfect at the support threshold (float drift),
  /// the rest of the matrix is covered by cover_decompose in one step and
  /// its assignments are handed out in order.
  std::optional<CircuitAssignment> next();

 private:
  SupportIndex m_;
  double start_threshold_ = 0.0;
  bool halve_on_failure_;
  std::optional<IncrementalMatcher> matcher_;
  CircuitSchedule tail_;  ///< cover_decompose's finish, once reached
  std::size_t tail_next_ = 0;
};

/// Decompose `m` (must be doubly stochastic; throws otherwise) into a
/// circuit schedule whose service matrix equals `m` exactly.
/// Terminates in at most nnz(m) rounds: every extracted coefficient zeroes
/// at least one entry.
CircuitSchedule bvn_decompose(Matrix m, BvnPolicy policy);

/// Sparse-path variant for callers that already carry a SupportIndex
/// (the Reco-Sin pipeline builds one index and threads it through
/// regularize -> stuff -> decompose).  Peeling cost is proportional to the
/// support: O(nnz * sqrt(N)) for the initial matching plus O(degree) per
/// repaired edge per round, versus O(rounds * N^2) for a dense rescan.
CircuitSchedule bvn_decompose(SupportIndex m, BvnPolicy policy);

/// Cover an arbitrary non-negative matrix with matchings: each round takes
/// a maximum matching on the nonzero support and holds it for the largest
/// matched entry, zeroing everything matched.  The service matrix *covers*
/// (>=) the input rather than equaling it.  Needs no Birkhoff structure;
/// used to finish the tolerance-scale residue that floating-point slicing
/// leaves behind, and usable on its own as a crude scheduler.
CircuitSchedule cover_decompose(SupportIndex m);

}  // namespace reco
