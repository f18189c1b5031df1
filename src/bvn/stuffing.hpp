// Stuffing (Sec. III-A): pad a demand matrix with phantom demand until it
// is doubly stochastic (all row and column sums equal), the precondition of
// Birkhoff's theorem.  Solstice calls the same operation QuickStuff.
#pragma once

#include "core/matrix.hpp"
#include "core/support_index.hpp"
#include "core/types.hpp"

namespace reco {

/// Pad `demand` so every row and column sums to rho(demand).  Greedy
/// slack-filling: always succeeds because total row slack equals total
/// column slack at any common line sum >= rho.
Matrix stuff(const Matrix& demand);

/// Sparse path: stuff an indexed demand in place and return the index.
/// The greedy fill walks only columns with remaining slack (a union-find
/// style next-live-column ladder) and the repair pass walks only the
/// support, so the cost is O(nnz + fill-ins + N alpha(N)) instead of
/// O(N^2).  Produces the same matrix as the dense overload bit-for-bit
/// (same fill order, same arithmetic; sums taken via the index's ordered
/// exact re-scans).
SupportIndex stuff(SupportIndex demand);

/// Stuff to the smallest multiple of `quantum` that is >= rho(demand).
/// When `demand` is already quantum-granular (post-regularization), every
/// stuffed amount — and hence every future BvN coefficient — is a multiple
/// of the quantum.  This is the Reco-Sin stuffing step (Alg. 1 Line 4).
Matrix stuff_granular(const Matrix& demand, Time quantum);
SupportIndex stuff_granular(SupportIndex demand, Time quantum);

}  // namespace reco
