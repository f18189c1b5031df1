#include "sched/reco_sin.hpp"

#include <utility>

#include "bvn/regularization.hpp"
#include "bvn/stuffing.hpp"
#include "core/support_index.hpp"
#include "obs/obs.hpp"

namespace reco {

namespace {

/// Alg. 1 up to the peel: regularize and stuff a non-empty indexed demand,
/// recording its size on the caller's sched.reco_sin span.
SupportIndex regularize_and_stuff(const SupportIndex& indexed, Time delta,
                                  obs::ScopedSpan& span) {
  span.arg("n", static_cast<double>(indexed.n()));
  span.arg("nnz", static_cast<double>(indexed.nnz()));
  if (obs::enabled()) obs::metrics().counter("sched.reco_sin.calls").inc();
  return stuff_granular(regularize(indexed, delta), delta);
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
  const SupportIndex indexed(demand);
  if (indexed.nnz() == 0) return {};
  return bvn_decompose(regularize_and_stuff(indexed, delta, span), policy);
}

SurvivingCursor::SurvivingCursor(const Matrix& residual, std::vector<char> failed_in,
                                 std::vector<char> failed_out, Time delta)
    : failed_in_(std::move(failed_in)), failed_out_(std::move(failed_out)) {
  obs::ScopedSpan span("sched.reco_sin_surviving", "sched");
  Matrix masked = residual;
  for (int i = 0; i < masked.n(); ++i) {
    for (int j = 0; j < masked.n(); ++j) {
      if (down(failed_in_, i) || down(failed_out_, j)) masked.at(i, j) = 0.0;
    }
  }
  if (obs::enabled()) {
    span.arg("masked_demand", residual.total() - masked.total());
  }
  obs::ScopedSpan plan_span("sched.reco_sin", "sched");
  const SupportIndex indexed(std::move(masked));
  if (indexed.nnz() == 0) return;
  SupportIndex stuffed = regularize_and_stuff(indexed, delta, plan_span);
  obs::ScopedSpan decompose("bvn.decompose", "bvn");
  decompose.arg("n", static_cast<double>(stuffed.n()));
  decompose.arg("nnz", static_cast<double>(stuffed.nnz()));
  peel_.emplace(std::move(stuffed), BvnPolicy::kMaxMinAmortized);
}

std::optional<CircuitAssignment> SurvivingCursor::next() {
  if (!peel_) return std::nullopt;
  obs::ScopedSpan span("bvn.peel", "bvn");
  while (std::optional<CircuitAssignment> a = peel_->next()) {
    // Stuffing may pad failed rows/columns up to the stochastic row sum;
    // those circuits carry no demand and cannot physically latch.
    std::erase_if(a->circuits, [this](const Circuit& c) {
      return down(failed_in_, c.in) || down(failed_out_, c.out);
    });
    if (!a->circuits.empty()) return a;
  }
  return std::nullopt;
}

CircuitSchedule reco_sin_surviving(const Matrix& residual, const std::vector<char>& failed_in,
                                   const std::vector<char>& failed_out, Time delta) {
  SurvivingCursor cursor(residual, failed_in, failed_out, delta);
  CircuitSchedule plan;
  while (std::optional<CircuitAssignment> a = cursor.next()) {
    plan.assignments.push_back(std::move(*a));
  }
  return plan;
}

}  // namespace reco
