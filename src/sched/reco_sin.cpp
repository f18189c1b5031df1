#include "sched/reco_sin.hpp"

#include <algorithm>
#include <utility>

#include "bvn/regularization.hpp"
#include "bvn/stuffing.hpp"
#include "core/support_index.hpp"
#include "obs/obs.hpp"

namespace reco {

namespace {

/// Alg. 1 up to the peel, shared by reco_sin and RecoSinCursor: ingest
/// `demand`, regularize and stuff it, recording its size on the caller's
/// sched.reco_sin span.  An all-zero demand gives an empty index.
SupportIndex plan_front_end(Matrix demand, Time delta, obs::ScopedSpan& span) {
  SupportIndex indexed(std::move(demand));
  if (indexed.nnz() == 0) return {};
  span.arg("n", static_cast<double>(indexed.n()));
  span.arg("nnz", static_cast<double>(indexed.nnz()));
  if (obs::enabled()) obs::metrics().counter("sched.reco_sin.calls").inc();
  return stuff_granular(regularize(std::move(indexed), delta), delta);
}

bool down(const std::vector<char>& mask, int p) {
  return p >= 0 && p < static_cast<int>(mask.size()) && mask[p];
}

}  // namespace

CircuitSchedule reco_sin(const Matrix& demand, Time delta, BvnPolicy policy) {
  // One O(N^2) ingest of the dense input; from here on every stage —
  // regularize, stuff, BvN peel — works the support index, so the
  // pipeline's cost tracks nnz(D) rather than N^2 per peeling round.
  obs::ScopedSpan span("sched.reco_sin", "sched");
  SupportIndex stuffed = plan_front_end(demand, delta, span);
  if (stuffed.empty()) return {};
  return bvn_decompose(std::move(stuffed), policy);
}

RecoSinCursor::RecoSinCursor(Matrix demand, Time delta) {
  obs::ScopedSpan span("sched.reco_sin", "sched");
  SupportIndex stuffed = plan_front_end(std::move(demand), delta, span);
  if (stuffed.empty()) return;
  obs::ScopedSpan decompose("bvn.decompose", "bvn");
  decompose.arg("n", static_cast<double>(stuffed.n()));
  decompose.arg("nnz", static_cast<double>(stuffed.nnz()));
  peel_.emplace(std::move(stuffed), BvnPolicy::kMaxMinAmortized);
}

std::optional<CircuitAssignment> RecoSinCursor::next() {
  if (!peel_) return std::nullopt;
  obs::ScopedSpan span("bvn.peel", "bvn");
  return peel_->next();
}

SurvivingCursor::SurvivingCursor(const Matrix& residual, std::vector<char> failed_in,
                                 std::vector<char> failed_out, Time delta)
    : failed_in_(std::move(failed_in)), failed_out_(std::move(failed_out)) {
  obs::ScopedSpan span("sched.reco_sin_surviving", "sched");
  Matrix masked = residual;
  const int n = masked.n();
  for (int i = 0; i < n; ++i) {
    if (down(failed_in_, i)) std::fill_n(masked.row_data(i), n, 0.0);
  }
  for (int j = 0; j < n; ++j) {
    if (!down(failed_out_, j)) continue;
    for (int i = 0; i < n; ++i) masked.at(i, j) = 0.0;
  }
  if (obs::enabled()) {
    span.arg("masked_demand", residual.total() - masked.total());
  }
  plan_.emplace(std::move(masked), delta);
}

std::optional<CircuitAssignment> SurvivingCursor::next() {
  while (std::optional<CircuitAssignment> a = plan_->next()) {
    // Stuffing may pad failed rows/columns up to the stochastic row sum;
    // those circuits carry no demand and cannot physically latch.
    std::erase_if(a->circuits, [this](const Circuit& c) {
      return down(failed_in_, c.in) || down(failed_out_, c.out);
    });
    if (!a->circuits.empty()) return a;
  }
  return std::nullopt;
}

}  // namespace reco
