// Reference semantics of the online policies: the clairvoyant batch loop
// that drove OnlineCore before sim::OnlineDaemon became the one online
// driver.  A test oracle, not library code.
//
// The loop sorts the workload by arrival itself and peeks at the next
// arrival to place each drain-replan cut; the daemon only learns of an
// arrival when its event fires.  tests/sim/test_online_daemon.cpp asserts
// that `sim::schedule_online` (the daemon over a VectorSource) emits the
// same slices, CCTs, stats and digest as this loop.  Do not "simplify" it
// onto the daemon: its value is being the independent reference.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

#include "core/coflow.hpp"
#include "core/types.hpp"
#include "sched/online_core.hpp"
#include "sim/online_daemon.hpp"

namespace reco::oracle {

inline sim::OnlineScheduleResult online_loop(const std::vector<Coflow>& coflows,
                                             OnlinePolicyKind policy,
                                             const OnlineCoreOptions& options = {}) {
  sim::OnlineScheduleResult result;
  result.cct.assign(coflows.size(), 0.0);
  if (coflows.empty()) return result;

  // Submission order: nondecreasing arrival, original index as tiebreak —
  // the admission sequence the event-driven daemon sees.
  std::vector<int> by_arrival(coflows.size());
  std::iota(by_arrival.begin(), by_arrival.end(), 0);
  std::stable_sort(by_arrival.begin(), by_arrival.end(), [&](int a, int b) {
    return coflows[a].arrival < coflows[b].arrival;
  });

  OnlineCore core(policy, options);
  core.reserve(coflows.size());

  const std::size_t n = coflows.size();
  std::size_t cursor = 0;

  if (policy == OnlinePolicyKind::kFifoRecoSin) {
    // FIFO: serve strictly in submission order; each serve starts at
    // max(clock, arrival), so admission timing cannot reorder anything —
    // submit lazily and step.
    Time clock = 0.0;
    while (cursor < n || !core.idle()) {
      if (core.idle()) core.submit(coflows[by_arrival[cursor++]]);
      clock = core.step_fifo(clock);
    }
  } else {
    const bool preempt = policy == OnlinePolicyKind::kDrainReplanRecoMul;
    Time clock = 0.0;
    while (cursor < n || !core.idle()) {
      // Admit everything that has arrived (eps-tolerant boundary, matching
      // the daemon's ingest_until lookahead).
      while (cursor < n && coflows[by_arrival[cursor]].arrival <= clock + kTimeEps) {
        core.submit(coflows[by_arrival[cursor++]]);
      }
      if (core.idle()) {
        clock = coflows[by_arrival[cursor]].arrival;  // fabric idle: jump ahead
        continue;
      }
      const Time next_arrival =
          cursor < n ? coflows[by_arrival[cursor]].arrival : std::numeric_limits<Time>::infinity();
      core.plan(clock);
      // Drain-replan cuts the epoch at the next arrival; epoch batching
      // runs it to completion.
      const Time cut =
          preempt ? next_arrival - clock : std::numeric_limits<Time>::infinity();
      const Time epoch_end = core.commit(cut);
      if (preempt && std::isfinite(next_arrival)) {
        // Replan when the kept prefix drains — but never before the arrival
        // that triggered the cut (nothing new to plan until it lands).
        clock = std::max(next_arrival, clock + epoch_end);
      } else {
        clock += epoch_end;
      }
    }
  }

  // Map core results (keyed by admission sequence) back to input positions.
  const std::vector<Time>& by_seq = core.cct_by_seq();
  for (std::size_t s = 0; s < by_arrival.size(); ++s) {
    result.cct[by_arrival[s]] = by_seq[s];
  }
  result.schedule = core.schedule();
  result.reconfigurations = core.stats().reconfigurations;
  result.epochs = core.stats().epochs;
  result.total_weighted_cct = core.stats().total_weighted_cct;
  result.digest = core.digest();
  return result;
}

}  // namespace reco::oracle
