// Regularization on traffic demands (Sec. III-B): round every nonzero entry
// up to the next integer multiple of the reconfiguration delay delta.  The
// resulting matrix is delta-granular, so every BvN coefficient extracted
// from it is >= delta — the structural fact behind Lemma 1 and Theorem 2.
#pragma once

#include "core/matrix.hpp"
#include "core/support_index.hpp"
#include "core/types.hpp"

namespace reco {

/// d_ij -> ceil(d_ij / quantum) * quantum for nonzero entries; zeros stay
/// zero (regularization only inflates existing demands, footnote 5).
Matrix regularize(const Matrix& demand, Time quantum);

/// Sparse path: round the index's stored values where they lie (O(nnz)
/// instead of O(N^2)) and return the index, ready for stuffing and
/// decomposition.  Regularization never changes the support (zeros stay
/// zero, nonzeros stay nonzero), so the blocks are kept as they are; only a
/// value that rounds below kTimeEps (a quantum that small) leaves it, as
/// SupportIndex::set would drop it.  Callers that keep their index pass a
/// copy.
SupportIndex regularize(SupportIndex demand, Time quantum);

}  // namespace reco
