// RotorNet-style demand-OBLIVIOUS circuit scheduling (Mellette et al.,
// SIGCOMM'17): the switch blindly cycles through N fixed round-robin
// permutations with a fixed slot length, touching every (i, j) pair once
// per cycle.  No demand estimation, no matching computation — the polar
// opposite of Reco-Sin's demand-driven plan, and a useful calibration
// point: obliviousness costs little on dense uniform demand and is
// catastrophic on sparse skewed demand.
#pragma once

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/types.hpp"

namespace reco {

/// Build the oblivious rotor schedule that covers `demand`: cycle k uses
/// permutations j = (i + r) mod N for r = 0..N-1, each held one slot of
/// 10 * delta (RotorNet keeps slots >> the reconfiguration penalty for
/// duty-cycle reasons), repeated until every entry is served.  Rotations
/// with no remaining demand are dropped (the executor would skip them
/// anyway, but dropping keeps the schedule finite and tight).  Throws
/// std::invalid_argument unless delta is positive.
CircuitSchedule rotornet_schedule(const Matrix& demand, Time delta);

}  // namespace reco
