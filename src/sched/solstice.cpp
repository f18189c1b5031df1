#include "sched/solstice.hpp"

#include <cmath>
#include <utility>

#include "bvn/bvn.hpp"
#include "bvn/stuffing.hpp"
#include "core/support_index.hpp"
#include "matching/incremental_matcher.hpp"
#include "obs/obs.hpp"

namespace reco {

namespace {
/// Below this slice size the remaining demand is noise relative to the
/// simulation tolerance; a final cover pass cleans it up.  Kept well under
/// kMinServiceQuantum so the leftover crumbs are invisible to executors.
constexpr double kSliceFloor = 8 * kTimeEps;
}  // namespace

CircuitSchedule solstice(const Matrix& demand) {
  obs::ScopedSpan span("sched.solstice", "sched");
  SupportIndex indexed(demand);
  if (indexed.nnz() == 0) return {};
  span.arg("n", static_cast<double>(indexed.n()));
  span.arg("nnz", static_cast<double>(indexed.nnz()));
  if (obs::enabled()) obs::metrics().counter("sched.solstice.calls").inc();
  SupportIndex m = stuff(std::move(indexed));

  CircuitSchedule schedule;
  std::uint64_t halvings = 0;  // published once after the slicing loop
  double r = std::exp2(std::ceil(std::log2(m.max_entry())));
  IncrementalMatcher matcher(m, r);

  while (m.nnz() > 0 && r >= kSliceFloor) {
    matcher.rematch();
    if (!matcher.is_perfect()) {
      r /= 2.0;
      matcher.set_threshold(r);
      ++halvings;
      continue;
    }
    CircuitAssignment a;
    a.duration = r;
    a.circuits.reserve(m.n());
    for (int i = 0; i < m.n(); ++i) {
      const int j = matcher.matched_col(i);
      a.circuits.push_back({i, j});
      m.set(i, j, clamp_zero(m.at(i, j) - r));
      matcher.on_entry_changed(i, j);
    }
    schedule.assignments.push_back(std::move(a));
  }

  // Binary slicing converges geometrically but never terminates exactly on
  // arbitrary real demands; cover the (tolerance-scale) residue so the
  // schedule provably satisfies the demand matrix.  The residue is below
  // kMinServiceQuantum per entry, so executors skip it entirely.
  if (m.nnz() > 0) {
    const CircuitSchedule tail = cover_decompose(std::move(m));
    for (const auto& a : tail.assignments) schedule.assignments.push_back(a);
  }
  if (obs::enabled()) {
    obs::metrics().counter("solstice.slices").inc(
        static_cast<double>(schedule.num_assignments()));
    obs::metrics().counter("solstice.threshold_halvings").inc(static_cast<double>(halvings));
    span.arg("slices", static_cast<double>(schedule.num_assignments()));
    span.arg("halvings", static_cast<double>(halvings));
  }
  return schedule;
}

}  // namespace reco
