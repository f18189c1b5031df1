// Umbrella header: include everything the library exports.
//
//   #include "reco.hpp"
//
// For faster builds include the specific module headers instead; this
// exists for examples, quick experiments, and downstream prototyping.
#pragma once

#include "bvn/bvn.hpp"                  // IWYU pragma: export
#include "bvn/regularization.hpp"       // IWYU pragma: export
#include "bvn/stuffing.hpp"             // IWYU pragma: export
#include "core/circuit.hpp"             // IWYU pragma: export
#include "core/coflow.hpp"              // IWYU pragma: export
#include "core/lower_bound.hpp"         // IWYU pragma: export
#include "core/matrix.hpp"              // IWYU pragma: export
#include "core/slice.hpp"               // IWYU pragma: export
#include "core/types.hpp"               // IWYU pragma: export
#include "lp/model.hpp"                 // IWYU pragma: export
#include "lp/simplex.hpp"               // IWYU pragma: export
#include "matching/bottleneck.hpp"      // IWYU pragma: export
#include "matching/hopcroft_karp.hpp"   // IWYU pragma: export
#include "matching/hungarian.hpp"       // IWYU pragma: export
#include "obs/metrics.hpp"              // IWYU pragma: export
#include "obs/obs.hpp"                  // IWYU pragma: export
#include "obs/trace.hpp"                // IWYU pragma: export
#include "ocs/all_stop_executor.hpp"    // IWYU pragma: export
#include "ocs/not_all_stop_executor.hpp"  // IWYU pragma: export
#include "ocs/slice_executor.hpp"       // IWYU pragma: export
#include "sched/bvn_baseline.hpp"       // IWYU pragma: export
#include "sched/fluid.hpp"              // IWYU pragma: export
#include "sched/hybrid.hpp"             // IWYU pragma: export
#include "sched/multi_baselines.hpp"    // IWYU pragma: export
#include "sched/online_core.hpp"        // IWYU pragma: export
#include "sched/ordering.hpp"           // IWYU pragma: export
#include "sched/packet_scheduler.hpp"   // IWYU pragma: export
#include "sched/reco_mul.hpp"           // IWYU pragma: export
#include "sched/reco_sin.hpp"           // IWYU pragma: export
#include "sched/rotornet.hpp"           // IWYU pragma: export
#include "sched/solstice.hpp"           // IWYU pragma: export
#include "sched/sunflow.hpp"            // IWYU pragma: export
#include "sched/tms.hpp"                // IWYU pragma: export
#include "sim/fabric.hpp"               // IWYU pragma: export
#include "sim/faults.hpp"               // IWYU pragma: export
#include "sim/multi_fabric.hpp"         // IWYU pragma: export
#include "sim/online_daemon.hpp"        // IWYU pragma: export
#include "stats/analysis.hpp"           // IWYU pragma: export
#include "stats/csv.hpp"                // IWYU pragma: export
#include "stats/report.hpp"             // IWYU pragma: export
#include "stats/summary.hpp"            // IWYU pragma: export
#include "trace/fb_format.hpp"          // IWYU pragma: export
#include "trace/generator.hpp"          // IWYU pragma: export
#include "trace/serialization.hpp"      // IWYU pragma: export
#include "trace/trace_stats.hpp"        // IWYU pragma: export

namespace reco {

/// Library version, bumped with any observable behaviour change.
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr const char* kVersionString = "1.0";

}  // namespace reco
