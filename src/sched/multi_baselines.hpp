// End-to-end multi-coflow pipelines (Sec. V-D contenders).
//
//  * Reco-Mul pipeline      — ordering -> non-preemptive packet schedule ->
//                             Algorithm 2 transform -> real-time OCS schedule.
//  * SEBF + Solstice        — SEBF priority order; coflows run through the
//                             OCS one at a time, each scheduled by Solstice
//                             (the paper's OCS adaptation of Varys).
//  * LP-II-GB               — interval-indexed-LP order; coflows run one at
//                             a time, each scheduled by plain stuffing+BvN
//                             (Qiu-Stein-Zhong's intra-coflow method).
#pragma once

#include <vector>

#include "core/coflow.hpp"
#include "core/slice.hpp"
#include "core/types.hpp"
#include "sched/ordering.hpp"

namespace reco {

/// A fabric-wide multi-coflow schedule on the real-time axis plus the
/// metrics every experiment reports.
struct MultiScheduleResult {
  SliceSchedule schedule;    ///< real-time slices (reconfig delays included)
  std::vector<Time> cct;     ///< completion time per coflow id
  int reconfigurations = 0;  ///< circuit establishments paid
  Time total_weighted_cct = 0.0;
};

/// Which single-coflow scheduler a sequential pipeline uses per coflow.
enum class SingleCoflowAlgo { kRecoSin, kSolstice, kBvn };

/// Run coflows through the OCS strictly one at a time in the given order,
/// each scheduled by `algo`.  This is how packet-switch-native orderings
/// (SEBF, LP-II-GB) are adapted to a circuit switch.
MultiScheduleResult sequential_multi_schedule(const std::vector<Coflow>& coflows,
                                              const std::vector<int>& order, Time delta,
                                              SingleCoflowAlgo algo);

/// SEBF + Solstice baseline.
MultiScheduleResult sebf_solstice(const std::vector<Coflow>& coflows, Time delta);

/// LP-II-GB baseline (LP ordering + per-coflow BvN).
MultiScheduleResult lp_ii_gb(const std::vector<Coflow>& coflows, Time delta);

/// Full Reco-Mul pipeline with the chosen ALG_p ordering (default BSSI,
/// the combinatorial Delta = 4 choice).
MultiScheduleResult reco_mul_pipeline(const std::vector<Coflow>& coflows, Time delta, double c,
                                      OrderingPolicy ordering = OrderingPolicy::kBssi);

/// Raw-S_p strawman for the Reco-Mul ablation: run the packet-switch
/// schedule in the OCS *without* start-time regularization (every distinct
/// start still pays a reconfiguration, but nothing is aligned).
MultiScheduleResult unregularized_pipeline(const std::vector<Coflow>& coflows, Time delta,
                                           OrderingPolicy ordering = OrderingPolicy::kBssi);

}  // namespace reco
