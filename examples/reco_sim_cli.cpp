// reco_sim_cli: drive any scheduler in the library against a trace file
// from the command line — the "operator console" for the simulator.
//
//   reco_sim_cli single <trace> [--coflow=K] [--algo=reco-sin|solstice|bvn|tms|sunflow]
//                       [--delta=SEC] [--model=all-stop|not-all-stop] [--gantt]
//   reco_sim_cli multi  <trace> [--algo=reco-mul|lp-ii-gb|sebf-solstice]
//                       [--delta=SEC] [--c=C] [--csv=FILE]
//   reco_sim_cli online <trace> [--policy=epoch|replan|fifo] [--delta=SEC] [--c=C]
//
// Every mode accepts --threads=N to size the parallel scheduling runtime
// (default: RECO_THREADS env var, else all hardware threads; 1 forces the
// sequential path).  Output is bit-identical at every thread count.
//
// Traces come from `trace_tool gen` (reco-trace format) or, with --fb, any
// file in the public Coflow-Benchmark format (the paper's FB2010 trace).
//
// Fault injection (single mode): --jitter=F / --retries=P (legacy timing
// faults), --fault-trace=FILE (scripted port failures, see
// sim/faults.hpp), --port-mtbf=S / --port-mttr=S (random port failures),
// --setup-timeout=P / --setup-attempts=N (bounded reconfiguration
// retries), --crosspoint-fail=P (partial setups), --fault-seed=N.  Any of
// these runs the schedule under a RecoveringController on the
// event-driven fabric and prints the degraded-operation accounting
// (delivered / stranded demand, setup failures, recoveries).
//
// Telemetry: --trace-out=FILE writes a Chrome trace-event JSON (load in
// Perfetto / chrome://tracing) and --metrics-out=FILE a metrics CSV;
// either flag (or RECO_TRACE=1) turns collection on.  See
// docs/OBSERVABILITY.md.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "core/lower_bound.hpp"
#include "obs/obs.hpp"
#include "ocs/all_stop_executor.hpp"
#include "ocs/not_all_stop_executor.hpp"
#include "sched/bvn_baseline.hpp"
#include "sched/multi_baselines.hpp"
#include "sched/reco_sin.hpp"
#include "sched/solstice.hpp"
#include "sched/sunflow.hpp"
#include "sched/tms.hpp"
#include "stats/analysis.hpp"
#include "stats/csv.hpp"
#include "stats/summary.hpp"
#include "sim/fabric.hpp"
#include "sim/online_daemon.hpp"
#include "trace/fb_format.hpp"
#include "trace/serialization.hpp"

namespace {

using namespace reco;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  reco_sim_cli single <trace> [--coflow=K] [--algo=A] [--delta=S]\n"
               "               [--model=all-stop|not-all-stop] [--gantt]\n"
               "               [--jitter=F] [--retries=P] [--fault-trace=FILE]\n"
               "               [--port-mtbf=S] [--port-mttr=S] [--setup-timeout=P]\n"
               "               [--setup-attempts=N] [--crosspoint-fail=P] [--fault-seed=N]\n"
               "  reco_sim_cli multi  <trace> [--algo=A] [--delta=S] [--c=C] [--csv=F]\n"
               "  reco_sim_cli online <trace> [--policy=epoch|replan|fifo] [--delta=S] [--c=C]\n"
               "  (all modes: --threads=N sizes the parallel runtime; 1 = sequential;\n"
               "   --trace-out=F writes Perfetto-loadable trace JSON, --metrics-out=F\n"
               "   a metrics CSV; either flag or RECO_TRACE=1 enables telemetry)\n");
  return 2;
}

int run_single(const cli::Args& args, const std::vector<Coflow>& coflows) {
  const int k = args.get_int<int>("coflow", 0);
  if (k < 0 || k >= static_cast<int>(coflows.size())) {
    std::fprintf(stderr, "coflow index %d out of range (0..%zu)\n", k, coflows.size() - 1);
    return 1;
  }
  const Matrix& d = coflows[k].demand;
  const Time delta = args.get_double("delta", 100e-6);
  const std::string algo = args.get("algo", "reco-sin");
  const std::string model = args.get_choice("model", "all-stop", {"all-stop", "not-all-stop"});

  std::printf("coflow %d: %dx%d fabric, %d flows, rho=%g s, tau=%d, LB=%g s\n", k, d.n(), d.n(),
              d.nnz(), d.rho(), d.tau(), single_coflow_lower_bound(d, delta));

  if (algo == "sunflow") {
    const SunflowResult r = sunflow(d, delta);
    std::printf("sunflow (not-all-stop native): CCT=%g s, %d circuits\n", r.cct,
                r.reconfigurations);
    return 0;
  }

  CircuitSchedule schedule;
  if (algo == "reco-sin") {
    schedule = reco_sin(d, delta);
  } else if (algo == "solstice") {
    schedule = solstice(d);
  } else if (algo == "bvn") {
    schedule = bvn_baseline(d);
  } else if (algo == "tms") {
    schedule = tms_schedule(d, delta);
  } else {
    std::fprintf(stderr, "unknown --algo=%s\n", algo.c_str());
    return 2;
  }

  const bool timing_faults = args.has("jitter") || args.has("retries") ||
                             args.has("setup-timeout") || args.has("setup-attempts");
  const bool port_faults = args.has("fault-trace") || args.has("port-mtbf") ||
                           args.has("crosspoint-fail");
  ExecutionResult r;
  if (timing_faults || port_faults) {
    sim::FaultConfig config;
    config.jitter_fraction = args.get_double("jitter", 0.0);
    config.retry_probability = args.get_double("retries", 0.0);
    config.max_attempts = args.get_int<int>("setup-attempts", 64);
    if (args.has("fault-trace")) {
      config.port_faults = sim::load_fault_trace(args.get("fault-trace", ""));
    }
    config.port_mtbf = args.get_double("port-mtbf", 0.0);
    config.port_mttr = args.get_double("port-mttr", 0.0);
    config.setup_timeout_probability = args.get_double("setup-timeout", 0.0);
    config.crosspoint_failure_probability = args.get_double("crosspoint-fail", 0.0);
    config.seed = args.get_int<std::uint64_t>("fault-seed", 1);
    sim::validate_fault_config(config);
    std::printf("fault injection: seed %llu, jitter %.0f%%, retry %.0f%%, timeout %.0f%%, "
                "crosspoint %.0f%%, mtbf %g s, mttr %g s, %zu scripted faults "
                "(event-driven all-stop fabric; --model ignored)\n",
                static_cast<unsigned long long>(config.seed),
                100 * config.jitter_fraction, 100 * config.retry_probability,
                100 * config.setup_timeout_probability,
                100 * config.crosspoint_failure_probability, config.port_mtbf,
                config.port_mttr, config.port_faults.size());
    sim::RecoveringController controller(schedule, delta);
    const sim::SimulationReport rep = sim::simulate_single_coflow(controller, d, delta, config);
    r.cct = rep.cct;
    r.transmission_time = rep.transmission_time;
    r.reconfigurations = rep.reconfigurations;
    r.satisfied = rep.satisfied;
    r.residual = Matrix(d.n());
    std::printf("faults: delivered %g s, stranded %g s, setups failed=%d partial=%d, "
                "ports failed=%d repaired=%d, recoveries=%d, replans=%d, degraded %g s\n",
                rep.delivered_demand, rep.stranded_demand, rep.setup_failures,
                rep.partial_setups, rep.port_failures, rep.port_repairs, rep.recoveries,
                controller.replans(), rep.degraded_time);
  } else {
    r = model == "not-all-stop" ? execute_not_all_stop(schedule, d, delta)
                                : execute_all_stop(schedule, d, delta);
  }
  std::printf("%s on %s OCS: CCT=%g s (transmit %g + %d reconfigs x %g)%s\n", algo.c_str(),
              model.c_str(), r.cct, r.transmission_time, r.reconfigurations, delta,
              r.satisfied ? "" : "  [DEMAND NOT SATISFIED]");

  const TimeBreakdown b = analyze_time_breakdown(schedule, d, delta);
  std::printf("stranded port time: %g port-seconds\n", b.stranded_port_time);

  if (args.has("gantt")) {
    SliceSchedule slices;
    execute_all_stop(schedule, d, delta, 0.0, k, &slices);
    std::printf("\n%s", render_gantt(slices, d.n()).c_str());
  }
  return r.satisfied ? 0 : 1;
}

int run_multi(const cli::Args& args, const std::vector<Coflow>& coflows) {
  const Time delta = args.get_double("delta", 100e-6);
  const double c = args.get_double("c", 4.0);
  const std::string algo = args.get("algo", "reco-mul");

  MultiScheduleResult r;
  if (algo == "reco-mul") {
    r = reco_mul_pipeline(coflows, delta, c);
  } else if (algo == "lp-ii-gb") {
    r = lp_ii_gb(coflows, delta);
  } else if (algo == "sebf-solstice") {
    r = sebf_solstice(coflows, delta);
  } else {
    std::fprintf(stderr, "unknown --algo=%s\n", algo.c_str());
    return 2;
  }

  std::vector<double> cct(r.cct.begin(), r.cct.end());
  std::printf("%s: %zu coflows, sum w*CCT=%g, avg CCT=%g s, p95=%g s, %d reconfigs\n",
              algo.c_str(), coflows.size(), r.total_weighted_cct, mean(cct),
              percentile(cct, 95), r.reconfigurations);

  if (obs::enabled()) {
    // Per-coflow service window (first slice start -> completion) on the
    // simulated-time timeline, one Perfetto track per coflow.
    std::vector<Time> first_start(coflows.size(), -1.0);
    std::vector<Time> last_end(coflows.size(), 0.0);
    for (const FlowSlice& s : r.schedule) {
      if (s.coflow < 0 || s.coflow >= static_cast<int>(coflows.size())) continue;
      if (first_start[s.coflow] < 0.0 || s.start < first_start[s.coflow]) {
        first_start[s.coflow] = s.start;
      }
      last_end[s.coflow] = std::max(last_end[s.coflow], s.end);
    }
    for (std::size_t k = 0; k < coflows.size(); ++k) {
      if (first_start[k] < 0.0) continue;
      obs::tracer().name_sim_track(static_cast<int>(k), "coflow " + std::to_string(k));
      obs::tracer().sim_span("coflow " + std::to_string(k), "sim.coflow", first_start[k],
                             last_end[k], static_cast<int>(k), {{"cct", r.cct[k]}});
    }
  }

  if (args.has("csv")) {
    std::ofstream out(args.get("csv", ""));
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.get("csv", "").c_str());
      return 1;
    }
    write_slices_csv(out, r.schedule);
    std::printf("wrote %zu slices to %s\n", r.schedule.size(), args.get("csv", "").c_str());
  }
  return 0;
}

int run_online(const cli::Args& args, const std::vector<Coflow>& coflows) {
  OnlineCoreOptions o;
  o.delta = args.get_double("delta", 100e-6);
  o.c_threshold = args.get_double("c", 4.0);
  const std::string policy_name = args.get_choice("policy", "epoch", {"epoch", "replan", "fifo"});
  const OnlinePolicyKind policy = policy_name == "fifo"     ? OnlinePolicyKind::kFifoRecoSin
                              : policy_name == "replan" ? OnlinePolicyKind::kDrainReplanRecoMul
                                                        : OnlinePolicyKind::kEpochRecoMul;
  const sim::OnlineScheduleResult r = sim::schedule_online(coflows, policy, o);
  std::vector<double> cct(r.cct.begin(), r.cct.end());
  std::printf("online/%s: sum w*CCT=%g, avg CCT=%g s, %d reconfigs, %d epochs\n",
              policy_name.c_str(), r.total_weighted_cct, mean(cct), r.reconfigurations,
              r.epochs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli::Args args = cli::parse(
        argc, argv,
        {"coflow", "algo", "delta", "model", "gantt", "jitter", "retries", "fault-trace",
         "port-mtbf", "port-mttr", "setup-timeout", "setup-attempts", "crosspoint-fail",
         "fault-seed", "c", "csv", "policy", "fb", "threads", "trace-out", "metrics-out",
         "help"});
    if (args.has("help") || args.positional.size() < 2) return usage();
    const std::string& command = args.positional[0];
    const std::string& trace_path = args.positional[1];
    args.apply_threads();
    reco::obs::init_from_env();
    const std::string trace_out = args.get("trace-out", "");
    const std::string metrics_out = args.get("metrics-out", "");
    if (!trace_out.empty() || !metrics_out.empty()) reco::obs::set_enabled(true);
    int ports = 0;
    const std::vector<Coflow> coflows =
        args.has("fb") ? load_fb_trace(trace_path, ports) : load_trace(trace_path, ports);
    if (coflows.empty()) {
      std::fprintf(stderr, "empty trace\n");
      return 1;
    }
    int rc;
    if (command == "single") {
      rc = run_single(args, coflows);
    } else if (command == "multi") {
      rc = run_multi(args, coflows);
    } else if (command == "online") {
      rc = run_online(args, coflows);
    } else {
      return usage();
    }
    if (!trace_out.empty()) {
      reco::obs::save_trace_json(trace_out);
      std::printf("wrote %zu trace events to %s (%llu dropped)\n", reco::obs::tracer().size(),
                  trace_out.c_str(),
                  static_cast<unsigned long long>(reco::obs::tracer().dropped()));
    }
    if (!metrics_out.empty()) {
      reco::obs::save_metrics_csv(metrics_out);
      std::printf("wrote metrics to %s\n", metrics_out.c_str());
    }
    return rc;
  } catch (const cli::FlagError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
