// Sunflow (Huang, Sun, Ng — CoNEXT'16): single-coflow scheduling for the
// *not-all-stop* OCS, the competitor row of Table III.
//
// Sunflow schedules circuits the way a packet switch schedules packets:
// every flow is transmitted in one non-preemptive shot on its (in, out)
// port pair, each port pair pays its own reconfiguration delay, and ports
// are work-conserving.  Huang et al. prove this is 2-approximate in the
// not-all-stop model.  We realize it as backfilling list scheduling over
// per-port timelines with a delta gap before every circuit setup.
#pragma once

#include "core/matrix.hpp"
#include "core/slice.hpp"
#include "core/types.hpp"

namespace reco {

struct SunflowResult {
  /// One slice per flow; starts already include the per-circuit setup
  /// delay, i.e. slice.start is when data begins to move.
  SliceSchedule schedule;
  /// CCT in the not-all-stop model (max slice end).
  Time cct = 0.0;
  /// Circuits established == number of flows (one shot per flow).
  int reconfigurations = 0;
};

/// Schedule one coflow on a not-all-stop OCS, Sunflow style: flows are
/// list-scheduled longest first (LPT, which balances port makespans).
SunflowResult sunflow(const Matrix& demand, Time delta);

}  // namespace reco
