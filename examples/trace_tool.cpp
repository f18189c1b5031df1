// Workload utility: generate a Facebook-like trace, print its Table I/II
// statistics, and archive it to / restore it from disk.
//
//   $ ./trace_tool gen  out.trace [coflows] [ports] [seed]
//   $ ./trace_tool show in.trace
//   $ ./trace_tool stats [coflows] [ports] [seed]      (no file I/O)
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "cli_args.hpp"
#include "trace/generator.hpp"
#include "trace/serialization.hpp"
#include "trace/trace_stats.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  trace_tool gen   <file> [coflows] [ports] [seed]\n"
               "  trace_tool show  <file>\n"
               "  trace_tool stats [coflows] [ports] [seed]\n");
}

reco::GeneratorOptions parse_options(int argc, char** argv, int first) {
  using reco::cli::parse_int;
  reco::GeneratorOptions o;
  if (argc > first + 0) o.num_coflows = parse_int<int>("coflows", argv[first + 0], 1);
  if (argc > first + 1) o.num_ports = parse_int<int>("ports", argv[first + 1], 2);
  if (argc > first + 2) o.seed = parse_int<std::uint64_t>("seed", argv[first + 2]);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reco;
  if (argc < 2) {
    usage();
    return 2;
  }

  try {
    if (std::strcmp(argv[1], "gen") == 0 && argc >= 3) {
      const GeneratorOptions o = parse_options(argc, argv, 3);
      const auto coflows = generate_workload(o);
      save_trace(argv[2], coflows, o.num_ports);
      std::printf("wrote %zu coflows (%d ports, seed %llu) to %s\n", coflows.size(),
                  o.num_ports, static_cast<unsigned long long>(o.seed), argv[2]);
      std::printf("%s", format_stats(compute_stats(coflows)).c_str());
      return 0;
    }
    if (std::strcmp(argv[1], "show") == 0 && argc >= 3) {
      int ports = 0;
      const auto coflows = load_trace(argv[2], ports);
      std::printf("%s: %zu coflows on %d ports\n", argv[2], coflows.size(), ports);
      std::printf("%s", format_stats(compute_stats(coflows)).c_str());
      return 0;
    }
    if (std::strcmp(argv[1], "stats") == 0) {
      const GeneratorOptions o = parse_options(argc, argv, 2);
      std::printf("%s", format_stats(compute_stats(generate_workload(o))).c_str());
      return 0;
    }
  } catch (const cli::FlagError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
