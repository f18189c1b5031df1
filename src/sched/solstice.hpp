// Solstice (Liu et al., CoNEXT'15): the state-of-the-art single-coflow
// baseline of Sec. V-B.  Two steps:
//   * QuickStuff — pad the demand matrix to doubly stochastic;
//   * BigSlice  — repeatedly extract a perfect matching all of whose
//     entries are >= a power-of-two threshold r, schedule it for exactly r,
//     and halve r whenever no such matching remains.
//
// Unlike Reco-Sin, slice durations track the binary expansion of the
// demands, so a matrix with "ragged" entries needs many small slices —
// this is precisely the reconfiguration-frequency gap Fig. 4(a) measures.
#pragma once

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/types.hpp"

namespace reco {

/// Build the Solstice circuit scheduling for one coflow.  It takes no
/// delta: Solstice is reconfiguration-agnostic, which is its weakness.
CircuitSchedule solstice(const Matrix& demand);

}  // namespace reco
