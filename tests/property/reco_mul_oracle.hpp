// Test oracle for Reco-Mul's pseudo-time transform (Algorithm 2), frozen as
// the production code computed it before each plan's start order was
// shared by every stage: legalization walks an index sort of the snapped
// starts (ties by packet start, then by index, the order production's
// start order gives); inflation re-sorts the legalized starts into start
// batches and binary-searches them twice per slice; the reconfiguration
// count sorts the real starts a third time.  The production transform must
// match it slice for slice, bit for bit, and count for count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/slice.hpp"
#include "core/types.hpp"

namespace reco::oracle {

/// Distinct starts, sorted, chain-deduplicated against the last kept batch.
inline std::vector<Time> start_batches(const SliceSchedule& schedule) {
  std::vector<Time> out;
  for (const FlowSlice& s : schedule) out.push_back(s.start);
  std::sort(out.begin(), out.end());
  std::size_t kept = 0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (kept == 0 || !approx_eq(out[kept - 1], out[k])) out[kept++] = out[k];
  }
  out.resize(kept);
  return out;
}

/// Number of batch times strictly below t (with tolerance).
inline std::size_t count_below(const std::vector<Time>& batches, Time t) {
  std::size_t lo = 0;
  std::size_t hi = batches.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (batches[mid] < t - kTimeEps) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Number of batch times <= t (with tolerance).
inline std::size_t count_at_or_below(const std::vector<Time>& batches, Time t) {
  std::size_t lo = 0;
  std::size_t hi = batches.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (batches[mid] <= t + kTimeEps) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

inline SliceSchedule inflate_pseudo_time(const SliceSchedule& pseudo, Time delta) {
  const std::vector<Time> batches = oracle::start_batches(pseudo);
  SliceSchedule real;
  for (const FlowSlice& s : pseudo) {
    // A batch counted at the start counts at the end too, so a slice of at
    // most 2 eps still ends at or after it starts.
    const std::size_t at_start = count_at_or_below(batches, s.start);
    const Time start_shift = delta * static_cast<Time>(at_start);
    const Time end_shift =
        delta * static_cast<Time>(std::max(at_start, count_below(batches, s.end)));
    real.push_back({s.start + start_shift, s.end + end_shift, s.src, s.dst, s.coflow});
  }
  return real;
}

struct RecoMulResult {
  SliceSchedule pseudo;
  SliceSchedule real;
  int reconfigurations = 0;  ///< start batches of `real`
  std::size_t pushed = 0;    ///< slices legalization moved later by more than kTimeEps
  bool reordered = false;    ///< a push carried a slice past a later start
};

inline RecoMulResult reco_mul_transform(const SliceSchedule& packet, Time delta, double c) {
  const double root_floor = std::floor(std::sqrt(c));
  const double stretch = (root_floor + 1.0) / root_floor;
  const Time quantum = std::sqrt(c) * delta;

  RecoMulResult r;
  for (const FlowSlice& s : packet) {
    const Time snapped = std::floor(s.start * stretch / quantum + kTimeEps) * quantum;
    r.pseudo.push_back({snapped, snapped + s.duration(), s.src, s.dst, s.coflow});
  }

  std::vector<std::size_t> by_start(r.pseudo.size());
  for (std::size_t f = 0; f < by_start.size(); ++f) by_start[f] = f;
  std::sort(by_start.begin(), by_start.end(), [&](std::size_t a, std::size_t b) {
    if (r.pseudo[a].start != r.pseudo[b].start) return r.pseudo[a].start < r.pseudo[b].start;
    if (packet[a].start != packet[b].start) return packet[a].start < packet[b].start;
    return a < b;
  });
  PortId max_port = -1;
  for (const FlowSlice& s : r.pseudo) max_port = std::max({max_port, s.src, s.dst});
  std::vector<Time> free_in(static_cast<std::size_t>(max_port + 1), 0.0);
  std::vector<Time> free_out(static_cast<std::size_t>(max_port + 1), 0.0);
  for (std::size_t f : by_start) {
    FlowSlice& s = r.pseudo[f];
    const Time start = std::max({s.start, free_in[s.src], free_out[s.dst]});
    if (start > s.start + kTimeEps) ++r.pushed;
    s.end = start + s.duration();
    s.start = start;
    free_in[s.src] = s.end;
    free_out[s.dst] = s.end;
  }
  r.reordered = !std::is_sorted(
      by_start.begin(), by_start.end(),
      [&](std::size_t a, std::size_t b) { return r.pseudo[a].start < r.pseudo[b].start; });

  r.real = oracle::inflate_pseudo_time(r.pseudo, delta);
  r.reconfigurations = static_cast<int>(oracle::start_batches(r.real).size());
  return r;
}

}  // namespace reco::oracle
