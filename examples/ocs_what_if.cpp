// What-if explorer for OCS hardware parameters: how does the
// reconfiguration delay change scheduling behaviour for one coflow?
// Sweeps delta over four decades and prints, per scheduler, the planned
// establishments, executed CCT, and distance from the lower bound — plus
// an all-stop vs not-all-stop switch-model comparison.
//
//   $ ./ocs_what_if [ports] [density] [seed]
#include <cstdint>
#include <cstdio>

#include "cli_args.hpp"
#include "core/lower_bound.hpp"
#include "ocs/all_stop_executor.hpp"
#include "ocs/not_all_stop_executor.hpp"
#include "sched/reco_sin.hpp"
#include "sched/solstice.hpp"
#include "trace/rng.hpp"

int main(int argc, char** argv) {
  using namespace reco;

  int n = 16;
  double density = 0.6;
  std::uint64_t seed = 7;
  try {
    if (argc > 1) n = cli::parse_int<int>("ports", argv[1], 1);
    if (argc > 2) density = cli::parse_double("density", argv[2]);
    if (argc > 3) seed = cli::parse_int<std::uint64_t>("seed", argv[3]);
  } catch (const cli::FlagError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // One synthetic coflow with demands in the hundreds of milliseconds.
  Rng rng(seed);
  Matrix demand(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < density) demand.at(i, j) = rng.uniform(0.01, 0.4);
    }
  }
  std::printf("Coflow: %dx%d, %d flows, rho = %.3fs\n\n", n, n, demand.nnz(), demand.rho());

  std::printf("%10s %22s %22s %12s\n", "", "Reco-Sin", "Solstice", "");
  std::printf("%10s %10s %11s %10s %11s %12s\n", "delta", "reconfigs", "CCT/LB", "reconfigs",
              "CCT/LB", "not-all-stop");
  for (const Time delta : {100e-6, 1e-3, 10e-3, 100e-3}) {
    const Time lb = single_coflow_lower_bound(demand, delta);
    const CircuitSchedule reco = reco_sin(demand, delta);
    const CircuitSchedule sol = solstice(demand);
    const ExecutionResult reco_run = execute_all_stop(reco, demand, delta);
    const ExecutionResult sol_run = execute_all_stop(sol, demand, delta);
    const ExecutionResult nas_run = execute_not_all_stop(reco, demand, delta);
    std::printf("%8.0fus %10d %10.2fx %10d %10.2fx %10.2fx\n", delta * 1e6,
                reco_run.reconfigurations, reco_run.cct / lb, sol_run.reconfigurations,
                sol_run.cct / lb, nas_run.cct / lb);
  }
  std::printf(
      "\nReading: as delta grows, regularization aligns more demand, so\n"
      "Reco-Sin's establishment count falls while Solstice's stays put —\n"
      "exactly the paper's Fig. 5 effect.  The last column executes the\n"
      "Reco-Sin schedule under the not-all-stop model (Sec. VI).\n");
  return 0;
}
