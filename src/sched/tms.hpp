// Traffic Matrix Scheduling in the Helios / c-Through style (Farrington et
// al. SIGCOMM'10; Porter et al. SIGCOMM'13): repeatedly establish the
// maximum-weight matching over the residual demand and hold it for a fixed
// "day length".  The classic OCS control loop and a natural third
// single-coflow baseline next to Solstice and plain BvN: reconfiguration-
// count-friendly when the day is long, but blind to stranded residuals.
#pragma once

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/types.hpp"

namespace reco {

/// Build a circuit scheduling for one coflow by repeated max-weight
/// matchings (Hungarian) over the residual demand, each held for one day
/// of 10 * delta ("night length" delta; Helios-style systems use day >>
/// night) or until its largest matched residual drains.  The schedule
/// always satisfies the demand.  Throws std::invalid_argument unless delta
/// is positive.
CircuitSchedule tms_schedule(const Matrix& demand, Time delta);

}  // namespace reco
