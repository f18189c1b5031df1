// Predicates the tests check production output with: what a circuit
// schedule serves, whether a matrix covers another, is granular or is
// doubly stochastic, and the aggregate stats of a slice schedule.  No
// program needs them, so they live here rather than on Matrix and
// CircuitSchedule.
#pragma once

#include <vector>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/slice.hpp"
#include "core/types.hpp"

namespace reco::oracle {

/// Demand matrix the schedule can serve at full utilization: entry (i,j)
/// accumulates the duration of every assignment containing circuit (i,j).
Matrix service_matrix(const CircuitSchedule& schedule, int n_ports);

/// True iff the schedule can fully serve `demand`, i.e. the service
/// matrix covers it entry-wise.  The tolerance scales with the schedule's
/// length: each assignment adds one rounding step to the service.
bool satisfies(const CircuitSchedule& schedule, const Matrix& demand);

/// True iff every entry of `a` is >= the matching entry of `b` - eps.
bool covers(const Matrix& a, const Matrix& b, double eps = kTimeEps);

/// True iff every entry is a non-negative integer multiple of quantum
/// (within eps) — the post-regularization invariant of Reco-Sin.
bool is_granular(const Matrix& m, double quantum, double eps = kTimeEps);

/// True iff every row and column sums to the same value (within eps):
/// the "doubly stochastic" shape required by Birkhoff's theorem (the
/// common value need not be 1; the paper scales by the row sum rho).
bool is_doubly_stochastic(const Matrix& m, double eps = kTimeEps);

/// Aggregate stats of a real-time multi-coflow schedule.
struct MultiExecutionStats {
  std::vector<Time> cct;  ///< per-coflow completion times (index = coflow id)
  int reconfigurations = 0;
  Time makespan = 0.0;
};

MultiExecutionStats analyze_schedule(const SliceSchedule& schedule, int num_coflows);

}  // namespace reco::oracle
