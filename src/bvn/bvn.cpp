#include "bvn/bvn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "matching/hopcroft_karp.hpp"
#include "obs/obs.hpp"

namespace reco {

namespace {

/// Per-round peel telemetry, bound once per process (stable handles; see
/// obs/metrics.hpp).  Every record is gated on obs::enabled() at the call
/// site, so the disabled cost is one branch per peel round.
struct PeelMetrics {
  obs::Counter& rounds = obs::metrics().counter("bvn.rounds");
  obs::Counter& permutations = obs::metrics().counter("bvn.permutations");
  obs::Counter& halvings = obs::metrics().counter("bvn.threshold_halvings");
  obs::Counter& coeff_total = obs::metrics().counter("bvn.coefficient_total");
  obs::Histogram& round_nnz =
      obs::metrics().histogram("bvn.round_nnz", obs::pow2_buckets(65536.0));
  obs::Histogram& coefficient =
      obs::metrics().histogram("bvn.coefficient", obs::pow2_buckets(1024.0));
  obs::Histogram& matching_size =
      obs::metrics().histogram("bvn.matching_size", obs::pow2_buckets(1024.0));

  static PeelMetrics& get() {
    static PeelMetrics m;
    return m;
  }

  void record_round(int nnz_before, const CircuitAssignment& a,
                    obs::Tracer::Clock::time_point round_start) {
    rounds.inc();
    permutations.inc();
    coeff_total.inc(a.duration);
    round_nnz.observe(static_cast<double>(nnz_before));
    coefficient.observe(a.duration);
    matching_size.observe(static_cast<double>(a.circuits.size()));
    obs::tracer().complete("bvn.round", "bvn", round_start, obs::Tracer::Clock::now(),
                           {{"nnz", static_cast<double>(nnz_before)},
                            {"coefficient", a.duration},
                            {"matching_size", static_cast<double>(a.circuits.size())}});
  }
};

/// Support-only threshold: any positive entry counts as an edge.
constexpr double kSupportThreshold = 2 * kTimeEps;

/// Extract one assignment from the current matcher state: coefficient is
/// the minimum entry along the perfect matching; subtract it everywhere.
CircuitAssignment extract_and_subtract(SupportIndex& m, IncrementalMatcher& matcher) {
  const int n = m.n();
  double coefficient = std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    coefficient = std::min(coefficient, m.at(i, matcher.matched_col(i)));
  }
  // At the support threshold an edge is present iff its entry is nonzero,
  // so only entries that hit exact zero can unmatch; skip the notification
  // for the rest (it would be a no-op probe).
  const bool support_only = matcher.threshold() <= kSupportThreshold;
  CircuitAssignment a;
  a.duration = coefficient;
  a.circuits.reserve(n);
  for (int i = 0; i < n; ++i) {
    const int j = matcher.matched_col(i);
    a.circuits.push_back({i, j});
    const double before = m.at(i, j);
    const double after = clamp_zero(before - coefficient);
    m.set(i, j, after);
    if (!support_only || after == 0.0) matcher.on_entry_changed(i, j);
  }
  return a;
}

/// Doubly-stochastic check from the index's incrementally maintained sums:
/// O(N) instead of an O(N^2) rescan.  Incremental drift is ~machine-eps
/// per mutation, orders of magnitude below the eps*N tolerance used here.
bool is_doubly_stochastic(const SupportIndex& m, double eps) {
  if (m.n() == 0) return true;
  const Time target = m.row_sum(0);
  for (int i = 0; i < m.n(); ++i) {
    if (std::abs(m.row_sum(i) - target) > eps) return false;
  }
  for (int j = 0; j < m.n(); ++j) {
    if (std::abs(m.col_sum(j) - target) > eps) return false;
  }
  return true;
}

}  // namespace

CircuitSchedule cover_decompose(SupportIndex m) {
  CircuitSchedule schedule;
  obs::ScopedSpan span("bvn.cover_decompose", "bvn");
  while (m.nnz() > 0) {
    const MatchingResult match = threshold_matching(m, kSupportThreshold);
    CircuitAssignment a;
    for (int i = 0; i < m.n(); ++i) {
      const int j = match.match_left[i];
      if (j == -1) continue;
      a.duration = std::max(a.duration, m.at(i, j));
      a.circuits.push_back({i, j});
      m.set(i, j, 0.0);
    }
    if (a.circuits.empty()) break;  // unreachable: nnz>0 implies a matchable edge
    schedule.assignments.push_back(std::move(a));
  }
  return schedule;
}

PeelCursor::PeelCursor(SupportIndex m, BvnPolicy policy)
    : m_(std::move(m)), halve_on_failure_(policy == BvnPolicy::kMaxMinAmortized) {
  if (!is_doubly_stochastic(m_, kTimeEps * std::max(1, m_.n()))) {
    throw std::invalid_argument("bvn_decompose: matrix is not doubly stochastic");
  }
  switch (policy) {
    case BvnPolicy::kFirstMatching:
      start_threshold_ = kSupportThreshold;
      return;
    case BvnPolicy::kMaxMinAmortized:
      // Start at the smallest power of two >= the max entry; halve until a
      // perfect matching exists, extract, repeat.  When every surviving
      // entry sits at tolerance scale the raw exp2 start can fall below the
      // support threshold (or derive from a -inf log2 on an all-crumb
      // matrix), letting the matcher treat sub-tolerance crumbs as edges;
      // clamp so the peel never scans below what nnz() counts as support.
      if (m_.nnz() > 0) {
        start_threshold_ =
            std::max(std::exp2(std::ceil(std::log2(m_.max_entry()))), kSupportThreshold);
      }
      return;
  }
  throw std::logic_error("bvn_decompose: unknown policy");
}

std::optional<CircuitAssignment> PeelCursor::next() {
  while (m_.nnz() > 0) {
    if (!matcher_) matcher_.emplace(m_, start_threshold_);
    const bool obs_on = obs::enabled();
    const int nnz_before = m_.nnz();
    obs::Tracer::Clock::time_point round_start;
    if (obs_on) round_start = obs::Tracer::Clock::now();
    matcher_->rematch();
    if (matcher_->is_perfect()) {
      CircuitAssignment a = extract_and_subtract(m_, *matcher_);
      if (obs_on) PeelMetrics::get().record_round(nnz_before, a, round_start);
      return a;
    }
    if (obs_on && halve_on_failure_ && matcher_->threshold() > kSupportThreshold) {
      PeelMetrics::get().halvings.inc();
    }
    if (!halve_on_failure_ || matcher_->threshold() <= kSupportThreshold) {
      // Exact Birkhoff structure guarantees a perfect matching on the
      // support, but after thousands of floating-point subtractions the
      // row/column sums drift apart by round-off and the guarantee breaks
      // for the last tolerance-scale crumbs.  Cover them instead of looping;
      // the emptied matrix ends the peel.
      matcher_.reset();
      tail_ = cover_decompose(std::exchange(m_, SupportIndex()));
      break;
    }
    const double next = matcher_->threshold() / 2.0;
    matcher_->set_threshold(next > kSupportThreshold ? next : kSupportThreshold);
  }
  if (tail_next_ == tail_.assignments.size()) return std::nullopt;
  return std::move(tail_.assignments[tail_next_++]);
}

CircuitSchedule bvn_decompose(SupportIndex m, BvnPolicy policy) {
  obs::ScopedSpan span("bvn.decompose", "bvn");
  span.arg("n", static_cast<double>(m.n()));
  span.arg("nnz", static_cast<double>(m.nnz()));
  const bool empty = m.nnz() == 0;
  PeelCursor cursor(std::move(m), policy);
  CircuitSchedule schedule;
  if (empty) return schedule;
  obs::ScopedSpan peel("bvn.peel", "bvn");
  while (std::optional<CircuitAssignment> a = cursor.next()) {
    schedule.assignments.push_back(std::move(*a));
  }
  return schedule;
}

CircuitSchedule bvn_decompose(Matrix m, BvnPolicy policy) {
  return bvn_decompose(SupportIndex(std::move(m)), policy);
}

}  // namespace reco
