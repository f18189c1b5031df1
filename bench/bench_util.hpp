// Shared plumbing for the experiment binaries: command-line options, the
// canonical workloads, and per-density-class sampling.
//
// Every experiment binary accepts:
//   --coflows=N  --ports=N  --seed=S  --samples=N  --threads=N  --full
// where --full switches to the paper's native scale (526 coflows on a
// 150-port fabric).  Defaults are tuned so the whole bench suite completes
// in minutes on one laptop core; EXPERIMENTS.md records both scales.
// --threads (or the RECO_THREADS env var) sets the parallel runtime's
// fan-out; results are bit-identical at every thread count.
// --trace-out=F / --metrics-out=F enable telemetry and flush it at exit
// (google-benchmark owns main(), so the writers run from an atexit hook).
//
// Binaries that are google-benchmark suites (bench_micro_kernels,
// bench_online_daemon, bench_scale) define RECO_BENCH_WITH_GBENCH before
// including this header and call bench::gbench::run_main() — the shared
// baseline reporter with min-time / repetition-median stability controls
// (see the gbench section at the bottom).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "core/coflow.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "trace/generator.hpp"

namespace reco::bench {

struct BenchOptions {
  int coflows = 0;   // 0 = per-bench default
  int ports = 0;     // 0 = per-bench default
  int samples = 0;   // 0 = per-bench default (per density class)
  std::uint64_t seed = 20190707;
  bool full = false;
  Time delta = 100e-6;
  double c_threshold = 4.0;
  std::string csv_dir;      ///< when set, benches export raw per-sample CSVs here
  std::string trace_out;    ///< when set, telemetry is on and a trace JSON is flushed at exit
  std::string metrics_out;  ///< when set, telemetry is on and a metrics CSV is flushed at exit
};

/// Apply a `--threads=` value; a malformed one is a usage error (exit 2).
inline void set_threads_flag(const std::string& value) {
  try {
    runtime::set_thread_count(runtime::parse_thread_count(value));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "--threads: %s\n", e.what());
    std::exit(2);
  }
}

/// All of a numeric flag's value as a non-negative T.  Junk, a minus sign
/// or an out-of-range number is a usage error (exit 2) naming the flag, not
/// atoi's silent 0.
template <class T>
T parse_uint_flag(const char* flag, const char* text) {
  T value{};
  const char* const last = text + std::strlen(text);
  const auto [end, ec] = std::from_chars(text, last, value);
  if (ec != std::errc() || end != last || *text == '-') {
    std::fprintf(stderr, "%s: \"%s\" is not an integer in [0, %s]\n", flag, text,
                 std::to_string(std::numeric_limits<T>::max()).c_str());
    std::exit(2);
  }
  return value;
}

/// The --trace-out / --metrics-out flags of every bench: honour RECO_TRACE,
/// and turn telemetry on, flushed at exit, when either path is set.
inline void enable_telemetry(const std::string& trace_out, const std::string& metrics_out) {
  obs::init_from_env();
  if (!trace_out.empty() || !metrics_out.empty()) {
    obs::set_enabled(true);
    obs::flush_at_exit(trace_out, metrics_out);
  }
}

inline BenchOptions parse_args(int argc, char** argv) {
  BenchOptions o;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto val = [&](const char* prefix) -> const char* {
      return arg.size() > std::strlen(prefix) && arg.rfind(prefix, 0) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    if (const char* v = val("--coflows=")) {
      o.coflows = parse_uint_flag<int>("--coflows", v);
    } else if (const char* v = val("--ports=")) {
      o.ports = parse_uint_flag<int>("--ports", v);
    } else if (const char* v = val("--samples=")) {
      o.samples = parse_uint_flag<int>("--samples", v);
    } else if (const char* v = val("--seed=")) {
      o.seed = parse_uint_flag<std::uint64_t>("--seed", v);
    } else if (const char* v = val("--csv=")) {
      o.csv_dir = v;
    } else if (const char* v = val("--trace-out=")) {
      o.trace_out = v;
    } else if (const char* v = val("--metrics-out=")) {
      o.metrics_out = v;
    } else if (const char* v = val("--threads=")) {
      set_threads_flag(v);
    } else if (arg == "--full") {
      o.full = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "options: --coflows=N --ports=N --samples=N --seed=S --threads=N --full --csv=DIR\n"
          "         --trace-out=FILE --metrics-out=FILE (enable telemetry, flush at exit)\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  enable_telemetry(o.trace_out, o.metrics_out);
  return o;
}

/// Single-coflow experiments run at paper scale by default (the per-coflow
/// algorithms are cheap enough); sampling keeps the dense class affordable.
inline GeneratorOptions single_coflow_workload(const BenchOptions& o) {
  GeneratorOptions g;
  g.num_ports = o.ports > 0 ? o.ports : 150;
  g.num_coflows = o.coflows > 0 ? o.coflows : 526;
  g.seed = o.seed;
  g.delta = o.delta;
  g.c_threshold = o.c_threshold;
  return g;
}

/// Multi-coflow experiments default to a medium scale where the LP-II-GB
/// interval-indexed LP is exactly solvable by the dense simplex; --full
/// selects paper scale (the LP ordering then falls back to BSSI, which the
/// binary reports).
inline GeneratorOptions multi_coflow_workload(const BenchOptions& o) {
  GeneratorOptions g;
  g.num_ports = o.ports > 0 ? o.ports : (o.full ? 150 : 50);
  g.num_coflows = o.coflows > 0 ? o.coflows : (o.full ? 526 : 120);
  g.seed = o.seed;
  g.delta = o.delta;
  g.c_threshold = o.c_threshold;
  return g;
}

/// Evaluate one experiment point per element of `points`, fanning out
/// across the runtime thread pool, and return the results in input order
/// (so report tables and CSVs are identical at every thread count).  Each
/// point is typically a whole pipeline run — the coarse-grained, perfectly
/// independent parallelism of the fig5/fig9/scalability sweeps.
template <typename T, typename Fn>
auto sweep(const std::vector<T>& points, Fn&& fn) {
  return runtime::parallel_map(points, std::forward<Fn>(fn));
}

/// Up to `max_per_class` coflow indices of each density class, preserving
/// trace order (a deterministic subsample for the per-class CDFs).
inline std::vector<int> sample_class(const std::vector<Coflow>& coflows, DensityClass cls,
                                     int max_per_class) {
  std::vector<int> out;
  for (int k = 0; k < static_cast<int>(coflows.size()); ++k) {
    if (coflows[k].density_class() == cls) {
      out.push_back(k);
      if (static_cast<int>(out.size()) >= max_per_class) break;
    }
  }
  return out;
}

inline const char* class_name(DensityClass cls) {
  switch (cls) {
    case DensityClass::kSparse: return "sparse";
    case DensityClass::kNormal: return "normal";
    case DensityClass::kDense: return "dense";
  }
  return "?";
}

inline constexpr DensityClass kAllClasses[] = {DensityClass::kSparse, DensityClass::kNormal,
                                               DensityClass::kDense};

/// Re-assign contiguous ids 0..n-1 (the multi-coflow pipelines index their
/// per-coflow results by id).
inline std::vector<Coflow> reindex(std::vector<Coflow> coflows) {
  for (std::size_t k = 0; k < coflows.size(); ++k) coflows[k].id = static_cast<int>(k);
  return coflows;
}

/// The coflows of one density class, re-indexed for standalone scheduling.
inline std::vector<Coflow> subset_by_class(const std::vector<Coflow>& coflows,
                                           DensityClass cls) {
  std::vector<Coflow> out;
  for (const Coflow& c : coflows) {
    if (c.density_class() == cls) out.push_back(c);
  }
  return reindex(std::move(out));
}

/// Set every weight to 1 (the unweighted-CCT experiments).
inline std::vector<Coflow> unit_weighted(std::vector<Coflow> coflows) {
  for (Coflow& c : coflows) c.weight = 1.0;
  return coflows;
}

}  // namespace reco::bench

// ---------------------------------------------------------------------------
// google-benchmark harness (gbench suites only; guarded so the report-table
// experiment binaries, which do not link google-benchmark, are unaffected)
// ---------------------------------------------------------------------------
#ifdef RECO_BENCH_WITH_GBENCH

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace reco::bench::gbench {

/// One baseline row: the benchmark's time plus every user counter it set.
struct Row {
  std::string name;
  double ns_per_op = 0.0;
  std::map<std::string, double> counters;

  double counter(const std::string& key) const {
    const auto it = counters.find(key);
    return it == counters.end() ? 0.0 : it->second;
  }
};

/// Console output plus an in-memory collection of per-benchmark results.
///
/// Stability: when repetitions are active (the default injected by
/// run_main), the recorded figure is the *median* repetition — a single
/// descheduling blip inflates the mean and is the documented source of the
/// BM_ThresholdMatchingDense/128/500 outlier in older baselines; the
/// median is immune to it.  Median aggregate rows are stored under the
/// bare benchmark name, so baseline JSON keys are identical with and
/// without repetitions.
class BaselineReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      std::string name = run.benchmark_name();
      bool is_median = false;
      if (run.run_type == Run::RT_Aggregate) {
        constexpr const char kSuffix[] = "_median";
        constexpr std::size_t kLen = sizeof(kSuffix) - 1;
        if (name.size() > kLen && name.compare(name.size() - kLen, kLen, kSuffix) == 0) {
          name.resize(name.size() - kLen);
          is_median = true;
        } else {
          continue;  // mean/stddev/cv: not baseline material
        }
      }
      Row row;
      row.name = std::move(name);
      row.ns_per_op = run.GetAdjustedRealTime();  // default time unit: ns
      for (const auto& kv : run.counters) row.counters[kv.first] = kv.second.value;
      // Ground-truth parallelism of the measuring box, recorded per row so
      // a perf guard elsewhere can tell "this thread sweep had cores to
      // scale onto" from "this row was measured oversubscribed".
      row.counters["cores"] = static_cast<double>(runtime::hardware_cores());
      upsert(std::move(row), is_median);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  void upsert(Row row, bool is_median) {
    for (Row& r : rows_) {
      if (r.name == row.name) {
        if (is_median) r = std::move(row);  // median supersedes a per-iteration row
        return;
      }
    }
    rows_.push_back(std::move(row));
  }

  std::vector<Row> rows_;
};

inline double row_ns(const std::vector<Row>& rows, const std::string& name) {
  for (const Row& r : rows) {
    if (r.name == name) return r.ns_per_op;
  }
  return 0.0;
}

/// Derived headline metrics appended to the baseline JSON (speedup ratios,
/// overhead percentages); entries with non-finite values are dropped.
using DerivedFn = std::vector<std::pair<std::string, double>> (*)(const std::vector<Row>&);

inline bool write_baseline_json(const std::string& path, const std::vector<Row>& rows,
                                const std::vector<std::string>& counter_keys,
                                const std::vector<std::pair<std::string, double>>& derived) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Row& r = rows[k];
    std::fprintf(f, "  \"%s\": {\"ns_per_op\": %.1f", r.name.c_str(), r.ns_per_op);
    for (const std::string& key : counter_keys) {
      std::fprintf(f, ", \"%s\": %.1f", key.c_str(), r.counter(key));
    }
    std::fprintf(f, "}%s\n", (k + 1 < rows.size() || !derived.empty()) ? "," : "");
  }
  for (std::size_t k = 0; k < derived.size(); ++k) {
    std::fprintf(f, "  \"%s\": %.2f%s\n", derived[k].first.c_str(), derived[k].second,
                 k + 1 < derived.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// Shared main() body for the gbench suites.  Handles `--baseline_json=F`,
/// `--threads=N` and the telemetry flags `--trace-out=F` / `--metrics-out=F`
/// (as parse_args does), and injects stability defaults unless the caller
/// overrides them on the command line: 0.05 s minimum measuring time and
/// 3 repetitions with aggregate-only reporting (the baseline then records
/// the median repetition; see BaselineReporter).
inline int run_main(int argc, char** argv, std::vector<std::string> counter_keys,
                    DerivedFn derived_fn = nullptr) {
  // Every baseline row carries the measuring box's core count (see
  // BaselineReporter); make sure the JSON writer emits it.
  if (std::find(counter_keys.begin(), counter_keys.end(), "cores") == counter_keys.end()) {
    counter_keys.push_back("cores");
  }
  std::string baseline_path;
  std::string trace_out;
  std::string metrics_out;
  std::vector<std::string> storage;
  bool has_min_time = false, has_reps = false, has_aggregates = false;
  for (int a = 0; a < argc; ++a) {
    const std::string arg = argv[a];
    constexpr const char kBaseline[] = "--baseline_json=";
    constexpr const char kThreads[] = "--threads=";
    constexpr const char kTraceOut[] = "--trace-out=";
    constexpr const char kMetricsOut[] = "--metrics-out=";
    if (arg.rfind(kBaseline, 0) == 0) {
      baseline_path = arg.substr(sizeof(kBaseline) - 1);
      continue;
    }
    if (arg.rfind(kThreads, 0) == 0) {
      set_threads_flag(arg.substr(sizeof(kThreads) - 1));
      continue;
    }
    if (arg.rfind(kTraceOut, 0) == 0) {
      trace_out = arg.substr(sizeof(kTraceOut) - 1);
      continue;
    }
    if (arg.rfind(kMetricsOut, 0) == 0) {
      metrics_out = arg.substr(sizeof(kMetricsOut) - 1);
      continue;
    }
    if (arg.rfind("--benchmark_min_time", 0) == 0) has_min_time = true;
    if (arg.rfind("--benchmark_repetitions", 0) == 0) has_reps = true;
    if (arg.rfind("--benchmark_report_aggregates_only", 0) == 0) has_aggregates = true;
    storage.push_back(arg);
  }
  if (!has_min_time) storage.push_back("--benchmark_min_time=0.05");
  if (!has_reps) storage.push_back("--benchmark_repetitions=3");
  if (!has_aggregates) storage.push_back("--benchmark_report_aggregates_only=true");
  enable_telemetry(trace_out, metrics_out);
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int argn = static_cast<int>(args.size());
  benchmark::Initialize(&argn, args.data());
  if (benchmark::ReportUnrecognizedArguments(argn, args.data())) return 1;
  BaselineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!baseline_path.empty()) {
    auto derived = derived_fn ? derived_fn(reporter.rows())
                              : std::vector<std::pair<std::string, double>>{};
    derived.erase(std::remove_if(derived.begin(), derived.end(),
                                 [](const auto& d) { return !std::isfinite(d.second); }),
                  derived.end());
    if (!write_baseline_json(baseline_path, reporter.rows(), counter_keys, derived)) {
      std::fprintf(stderr, "failed to write %s\n", baseline_path.c_str());
      return 1;
    }
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace reco::bench::gbench

#endif  // RECO_BENCH_WITH_GBENCH
