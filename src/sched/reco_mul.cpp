#include "sched/reco_mul.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "ocs/slice_executor.hpp"

namespace reco {

RecoMulSchedule reco_mul_transform(const SliceSchedule& packet, Time delta, double c) {
  RecoMulScratch scratch;
  RecoMulSchedule out;
  reco_mul_transform_into(packet, delta, c, scratch, out);
  return out;
}

void reco_mul_transform_into(const SliceSchedule& packet, Time delta, double c,
                             RecoMulScratch& scratch, RecoMulSchedule& out) {
  obs::ScopedSpan span("sched.reco_mul_transform", "sched");
  span.arg("slices", static_cast<double>(packet.size()));
  // Written so NaN fails them: every comparison with NaN is false.
  if (!(c >= 1.0) || !std::isfinite(c)) {
    throw std::invalid_argument(
        "reco_mul_transform: c must be finite and >= 1 (floor(sqrt(c)) >= 1)");
  }
  if (!(delta > 0.0) || !std::isfinite(delta)) {
    throw std::invalid_argument("reco_mul_transform: delta must be positive and finite");
  }
  const double root_floor = std::floor(std::sqrt(c));
  const double stretch = (root_floor + 1.0) / root_floor;  // Alg. 2 Line 6
  const Time quantum = std::sqrt(c) * delta;               // Alg. 2 Line 7

  out.pseudo.clear();
  out.pseudo.reserve(packet.size());
  for (const FlowSlice& s : packet) {
    const double stretched = s.start * stretch;
    // floor with tolerance: a start already sitting on a grid point must
    // map to itself, not one quantum lower.
    const Time snapped = std::floor(stretched / quantum + kTimeEps) * quantum;
    out.pseudo.push_back({snapped, snapped + s.duration(), s.src, s.dst, s.coflow});
  }

  // Legalization: when every demand satisfies d >= c*delta, Lemma 2 proves
  // the snapped schedule is already port-feasible and this pass changes
  // nothing.  When the caller stretches the assumption (e.g. sweeping delta
  // over a fixed trace, Fig. 9(a)), snapping can make conflicting flows
  // overlap; we then push offenders later, off the alignment grid.  That
  // costs extra start batches — exactly the graceful degradation the paper
  // observes at millisecond-scale delta.
  {
    // Packet-start order is the (snapped start, packet start) order: every
    // IEEE step of the snap is monotone, so snapping keeps starts in order.
    std::vector<std::size_t>& by_start = out.order;
    order_by_start(packet, by_start, scratch.keys, scratch.keys_temp);
    PortId max_port = -1;
    for (const FlowSlice& s : out.pseudo) max_port = std::max({max_port, s.src, s.dst});
    scratch.free_in.assign(static_cast<std::size_t>(max_port + 1), 0.0);
    scratch.free_out.assign(static_cast<std::size_t>(max_port + 1), 0.0);
    std::uint64_t pushed = 0;  // slices legalization moved off the snap grid
    for (std::size_t f : by_start) {
      FlowSlice& s = out.pseudo[f];
      const Time start = std::max({s.start, scratch.free_in[s.src], scratch.free_out[s.dst]});
      if (start > s.start + kTimeEps) ++pushed;
      s.end = start + s.duration();
      s.start = start;
      scratch.free_in[s.src] = s.end;
      scratch.free_out[s.dst] = s.end;
    }
    // Legalization only delays starts, so the order still ascends unless a
    // push carried a slice past a later one.  Only then sort again.
    const bool reordered =
        !std::is_sorted(by_start.begin(), by_start.end(), [&](std::size_t a, std::size_t b) {
          return out.pseudo[a].start < out.pseudo[b].start;
        });
    if (reordered) order_by_start(out.pseudo, by_start, scratch.keys, scratch.keys_temp);
    if (obs::enabled()) {
      obs::metrics().counter("reco_mul.calls").inc();
      obs::metrics().counter("reco_mul.slices").inc(static_cast<double>(packet.size()));
      obs::metrics().counter("reco_mul.legalization_pushes").inc(static_cast<double>(pushed));
      if (reordered) obs::metrics().counter("reco_mul.reorders").inc();
      span.arg("legalization_pushes", static_cast<double>(pushed));
    }
  }

  out.reconfigurations =
      inflate_in_start_order(out.pseudo, out.order, delta, scratch.batches, out.real);
}

}  // namespace reco
