// Extension: dynamic (per-decision) OCS control vs plan-based online
// policies, under Poisson arrivals.  The event-driven fabric runs OMCO-
// style greedy controllers that re-decide at every drain; the plan-based
// policies batch and transform via Algorithm 2.  Also contrasts the
// clairvoyant SEBF priority with the non-clairvoyant least-attained-
// service (Aalo-flavoured) priority.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/multi_fabric.hpp"
#include "sim/online_daemon.hpp"
#include "stats/report.hpp"
#include "stats/summary.hpp"
#include "trace/generator.hpp"

int main(int argc, char** argv) {
  using namespace reco;
  const bench::BenchOptions opts = bench::parse_args(argc, argv);

  GeneratorOptions g;
  g.num_ports = opts.ports > 0 ? opts.ports : 40;
  g.num_coflows = opts.coflows > 0 ? opts.coflows : 60;
  g.seed = opts.seed;
  g.delta = opts.delta;
  g.c_threshold = opts.c_threshold;
  g.mean_interarrival = 5e-3;
  const auto coflows = generate_workload(g);

  OnlineCoreOptions online;
  online.delta = g.delta;
  online.c_threshold = g.c_threshold;

  ReportTable t("Extension: dynamic controllers vs plan-based online policies");
  t.set_header({"policy", "sum w*CCT", "avg CCT", "reconfigs"});

  const auto add_fabric_row = [&](const char* name, sim::MultiFabricReport r) {
    std::vector<double> cct(r.cct.begin(), r.cct.end());
    t.add_row({name, fmt_double(r.total_weighted_cct, 4), fmt_time(mean(cct)),
               std::to_string(r.reconfigurations)});
  };
  const auto add_plan_row = [&](const char* name, const sim::OnlineScheduleResult& r) {
    std::vector<double> cct(r.cct.begin(), r.cct.end());
    t.add_row({name, fmt_double(r.total_weighted_cct, 4), fmt_time(mean(cct)),
               std::to_string(r.reconfigurations)});
  };

  using Priority = sim::GreedyPriorityController::Priority;
  {
    sim::GreedyPriorityController c(g.delta, Priority::kSmallestResidualFirst, false);
    add_fabric_row("dynamic greedy SEBF (tight hold)", simulate_multi_coflow(c, coflows, g.delta));
  }
  {
    sim::GreedyPriorityController c(g.delta, Priority::kSmallestResidualFirst, true);
    add_fabric_row("dynamic greedy SEBF (drain hold)", simulate_multi_coflow(c, coflows, g.delta));
  }
  {
    sim::GreedyPriorityController c(g.delta, Priority::kLeastServedFirst, true);
    add_fabric_row("dynamic greedy LAS (non-clairvoyant)",
                   simulate_multi_coflow(c, coflows, g.delta));
  }
  add_plan_row("plan: epoch Reco-Mul",
               sim::schedule_online(coflows, OnlinePolicyKind::kEpochRecoMul, online));
  add_plan_row("plan: drain-replan Reco-Mul",
               sim::schedule_online(coflows, OnlinePolicyKind::kDrainReplanRecoMul, online));
  add_plan_row("plan: FIFO Reco-Sin",
               sim::schedule_online(coflows, OnlinePolicyKind::kFifoRecoSin, online));

  std::printf("Workload: %d coflows on %d ports; delta = %s; Poisson arrivals\n"
              "(mean gap %s).\n\n",
              g.num_coflows, g.num_ports, fmt_time(g.delta).c_str(), fmt_time(5e-3).c_str());
  t.print();
  std::printf("Reading: per-decision control reacts instantly to arrivals but pays in\n"
              "establishments (tight hold) or stranded ports (drain hold); Algorithm-2\n"
              "planning amortizes reconfigurations across aligned batches.  The LAS row\n"
              "shows the price of non-clairvoyance relative to its SEBF twin.\n");
  return 0;
}
