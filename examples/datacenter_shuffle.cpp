// A MapReduce shuffle scenario: many coflows compete for an OCS fabric.
// Generates a Facebook-like workload, then schedules it with Reco-Mul and
// both multi-coflow baselines, printing per-scheme weighted CCTs — the
// inter-coflow story of the paper's Sec. V-D at example scale.
//
//   $ ./datacenter_shuffle [num_coflows] [num_ports] [seed]
#include <cstdint>
#include <cstdio>

#include "cli_args.hpp"
#include "sched/multi_baselines.hpp"
#include "stats/summary.hpp"
#include "trace/generator.hpp"
#include "trace/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace reco;

  GeneratorOptions options;
  options.num_coflows = 60;
  options.num_ports = 40;
  options.seed = 1;
  try {
    if (argc > 1) options.num_coflows = cli::parse_int<int>("coflows", argv[1], 1);
    if (argc > 2) options.num_ports = cli::parse_int<int>("ports", argv[2], 2);
    if (argc > 3) options.seed = cli::parse_int<std::uint64_t>("seed", argv[3]);
  } catch (const cli::FlagError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const auto coflows = generate_workload(options);
  std::printf("Generated %d coflows on a %dx%d OCS (delta = %.0f us, c = %.0f)\n\n",
              options.num_coflows, options.num_ports, options.num_ports,
              options.delta * 1e6, options.c_threshold);
  std::printf("%s\n", format_stats(compute_stats(coflows)).c_str());

  struct Row {
    const char* name;
    MultiScheduleResult result;
  };
  const Row rows[] = {
      {"Reco-Mul (BSSI order)", reco_mul_pipeline(coflows, options.delta, options.c_threshold)},
      {"LP-II-GB", lp_ii_gb(coflows, options.delta)},
      {"SEBF+Solstice", sebf_solstice(coflows, options.delta)},
  };

  const double reference = rows[0].result.total_weighted_cct;
  std::printf("%-24s %14s %14s %10s %12s\n", "scheme", "sum w*CCT", "avg CCT", "reconfigs",
              "vs Reco-Mul");
  for (const Row& row : rows) {
    std::vector<double> cct(row.result.cct.begin(), row.result.cct.end());
    std::printf("%-24s %14.4f %14.4f %10d %11.2fx\n", row.name, row.result.total_weighted_cct,
                mean(cct), row.result.reconfigurations,
                row.result.total_weighted_cct / reference);
  }
  std::printf("\nLower is better; 'vs Reco-Mul' is the paper's normalized CCT.\n");
  return 0;
}
