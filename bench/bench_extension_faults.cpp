// Extension: robustness to imperfect hardware.  Real MEMS reconfiguration
// times jitter and occasionally fail outright; a schedule's exposure is
// proportional to how many establishments it makes.  Reco-Sin's low
// reconfiguration count should therefore translate into fault *tolerance*
// relative to Solstice — this bench quantifies that.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sched/reco_sin.hpp"
#include "sched/solstice.hpp"
#include "sim/fabric.hpp"
#include "stats/report.hpp"
#include "stats/summary.hpp"
#include "trace/generator.hpp"

int main(int argc, char** argv) {
  using namespace reco;
  const bench::BenchOptions opts = bench::parse_args(argc, argv);
  GeneratorOptions g = bench::single_coflow_workload(opts);
  if (opts.ports == 0 && !opts.full) g.num_ports = 64;
  const int samples = opts.samples > 0 ? opts.samples : (opts.full ? 1 << 30 : 8);
  const auto coflows = generate_workload(g);

  struct Scenario {
    const char* name;
    sim::FaultConfig faults;
  };
  const auto timing = [](double jitter, double retry) {
    sim::FaultConfig faults;
    faults.jitter_fraction = jitter;
    faults.retry_probability = retry;
    return faults;
  };
  const Scenario scenarios[] = {
      {"ideal", {}},
      {"jitter 25%", timing(0.25, 0.0)},
      {"jitter 100%", timing(1.0, 0.0)},
      {"retries 10%", timing(0.0, 0.10)},
      {"retries 30%", timing(0.0, 0.30)},
      {"jitter 50% + retries 20%", timing(0.5, 0.2)},
  };

  ReportTable t("Extension: CCT degradation under reconfiguration faults");
  t.set_header({"fault scenario", "Reco-Sin CCT", "degrade", "Solstice CCT", "degrade",
                "Sol/Reco"});

  // Mean over a mixed sample (normal + dense carry the reconfig exposure).
  std::vector<int> picked;
  for (DensityClass cls : bench::kAllClasses) {
    for (int k : bench::sample_class(coflows, cls, samples)) picked.push_back(k);
  }

  double reco_ideal = 0.0;
  double sol_ideal = 0.0;
  for (const Scenario& sc : scenarios) {
    std::vector<double> reco_cct, sol_cct;
    for (int k : picked) {
      const Matrix& d = coflows[k].demand;
      sim::ReplayController reco_ctrl(reco_sin(d, g.delta));
      sim::ReplayController sol_ctrl(solstice(d));
      reco_cct.push_back(sim::simulate_single_coflow(reco_ctrl, d, g.delta, sc.faults).cct);
      sol_cct.push_back(sim::simulate_single_coflow(sol_ctrl, d, g.delta, sc.faults).cct);
    }
    const double reco = mean(reco_cct);
    const double sol = mean(sol_cct);
    if (sc.faults.jitter_fraction == 0.0 && sc.faults.retry_probability == 0.0) {
      reco_ideal = reco;
      sol_ideal = sol;
    }
    t.add_row({sc.name, fmt_time(reco), fmt_ratio(reco / reco_ideal), fmt_time(sol),
               fmt_ratio(sol / sol_ideal), fmt_ratio(sol / reco)});
  }

  std::printf("Workload: %d coflows on %d ports; delta = %s; %zu coflows sampled;\n"
              "event-driven fabric with seeded fault streams.\n\n",
              g.num_coflows, g.num_ports, fmt_time(g.delta).c_str(), picked.size());
  t.print();
  std::printf("Expected: both degrade, but Solstice degrades faster — its CCT carries\n"
              "~6x more establishments, so every microsecond of jitter and every retry\n"
              "lands on it ~6x as often.  The last column should widen down the table.\n");
  return 0;
}
