#include "sched/multi_baselines.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "ocs/all_stop_executor.hpp"
#include "runtime/parallel.hpp"
#include "ocs/slice_executor.hpp"
#include "sched/bvn_baseline.hpp"
#include "sched/packet_scheduler.hpp"
#include "sched/reco_mul.hpp"
#include "sched/reco_sin.hpp"
#include "sched/solstice.hpp"

namespace reco {

namespace {
CircuitSchedule schedule_one(const Matrix& demand, Time delta, SingleCoflowAlgo algo) {
  switch (algo) {
    case SingleCoflowAlgo::kRecoSin: return reco_sin(demand, delta);
    case SingleCoflowAlgo::kSolstice: return solstice(demand);
    case SingleCoflowAlgo::kBvn: return bvn_baseline(demand);
  }
  throw std::logic_error("schedule_one: unknown algorithm");
}

MultiScheduleResult finalize(SliceSchedule schedule, const std::vector<Coflow>& coflows,
                             int reconfigurations) {
  MultiScheduleResult r;
  r.schedule = std::move(schedule);
  r.cct = completion_times(r.schedule, static_cast<int>(coflows.size()));
  r.reconfigurations = reconfigurations;
  r.total_weighted_cct = total_weighted_cct(r.cct, coflows);
  return r;
}
}  // namespace

MultiScheduleResult sequential_multi_schedule(const std::vector<Coflow>& coflows,
                                              const std::vector<int>& order, Time delta,
                                              SingleCoflowAlgo algo) {
  // The per-coflow planners see only the coflow's own demand, never the
  // clock, so the expensive decompositions fan out across the runtime's
  // thread pool; only the (cheap) back-to-back execution below is ordered.
  obs::ScopedSpan span("sched.sequential_multi", "sched");
  span.arg("coflows", static_cast<double>(order.size()));
  const std::vector<CircuitSchedule> plans = [&] {
    obs::ScopedSpan plan_span("sched.plan_coflows", "sched");
    return runtime::parallel_map(
        order, [&](int idx) { return schedule_one(coflows[idx].demand, delta, algo); });
  }();

  obs::ScopedSpan exec_span("sched.execute_back_to_back", "sched");
  SliceSchedule slices;
  int reconfigs = 0;
  Time clock = 0.0;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const Coflow& c = coflows[order[p]];
    const ExecutionResult exec = execute_all_stop(plans[p], c.demand, delta, clock, c.id, &slices);
    if (!exec.satisfied) {
      throw std::logic_error("sequential_multi_schedule: demand not satisfied");
    }
    clock += exec.cct;
    reconfigs += exec.reconfigurations;
  }
  return finalize(std::move(slices), coflows, reconfigs);
}

MultiScheduleResult sebf_solstice(const std::vector<Coflow>& coflows, Time delta) {
  return sequential_multi_schedule(coflows, sebf_order(coflows), delta,
                                   SingleCoflowAlgo::kSolstice);
}

MultiScheduleResult lp_ii_gb(const std::vector<Coflow>& coflows, Time delta) {
  return sequential_multi_schedule(coflows, lp_order(coflows), delta,
                                   SingleCoflowAlgo::kBvn);
}

MultiScheduleResult reco_mul_pipeline(const std::vector<Coflow>& coflows, Time delta, double c,
                                      OrderingPolicy ordering) {
  obs::ScopedSpan span("sched.reco_mul_pipeline", "sched");
  span.arg("coflows", static_cast<double>(coflows.size()));
  const std::vector<int> order = [&] {
    obs::ScopedSpan s("sched.order_coflows", "sched");
    return order_coflows(coflows, ordering);
  }();
  const SliceSchedule packet = packet_schedule(coflows, order);
  RecoMulSchedule transformed = reco_mul_transform(packet, delta, c);
  // Count on the *emitted* real-time schedule, not the pseudo one: the
  // result's reconfiguration figure must agree with its `schedule` field
  // (inflation preserves batch count, but eps-close pseudo starts can
  // dedup differently — the real axis is what the fabric pays for).  The
  // transform counted it along its start order.
  const int reconfigs = transformed.reconfigurations;
  if (obs::enabled()) {
    obs::metrics().counter("reco_mul.reconfigurations").inc(static_cast<double>(reconfigs));
  }
  return finalize(std::move(transformed.real), coflows, reconfigs);
}

MultiScheduleResult unregularized_pipeline(const std::vector<Coflow>& coflows, Time delta,
                                           OrderingPolicy ordering) {
  const std::vector<int> order = order_coflows(coflows, ordering);
  const SliceSchedule packet = packet_schedule(coflows, order);
  // No start-time regularization: inflate the raw packet schedule directly.
  const SliceSchedule real = inflate_pseudo_time(packet, delta);
  // As in reco_mul_pipeline: the count must describe the emitted schedule.
  const int reconfigs = count_reconfigurations(real);
  return finalize(real, coflows, reconfigs);
}

}  // namespace reco
