// online-stream: the online daemon's hot loop.  A 100 000-coflow
// ArrivalStream on 16 ports with a 16 ms mean gap, drain-replan policy and
// BSSI ordering.  Each pass runs the stream twice: once through
// sim::OnlineDaemon (throughput and the digest), once through a
// benchmark-owned driver that calls OnlineCore::submit/plan/commit itself
// and times every plan() exactly; the daemon's own latency recorder has
// power-of-two buckets and cannot resolve changes within one bucket.
//
// A plan's cost grows with the live backlog, so plan latency follows the
// backlog's distribution.  Near saturation that distribution converges
// slowly and differs from seed to seed: at a 12 ms gap the mean backlog of
// a 100 000-coflow stream ranged over 8.6-9.7 coflows across seeds, and
// p50 over 0.114-0.148 ms with it.  At 16 ms it ranges over 4.0-4.2.
#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <string>

#include "core/lower_bound.hpp"
#include "e2e.hpp"
#include "sched/online_core.hpp"
#include "sim/online_daemon.hpp"
#include "trace/generator.hpp"

namespace e2e {

namespace {

using namespace reco;

constexpr Time kDelta = GeneratorOptions{}.delta;

GeneratorOptions stream_options(const RunConfig& cfg) {
  GeneratorOptions g;
  g.num_ports = 16;
  g.num_coflows = cfg.tiny ? 1000 : 100000;
  g.seed = cfg.seed;
  // Well below saturation on purpose: at an 8 ms gap the backlog keeps
  // growing, and at 12 ms its mean still varies too much between seeds.
  g.mean_interarrival = 16e-3;
  return g;
}

OnlineCoreOptions core_options() {
  OnlineCoreOptions o;
  o.delta = kDelta;
  o.c_threshold = GeneratorOptions{}.c_threshold;
  o.ordering = OrderingPolicy::kBssi;
  o.record_schedule = false;
  return o;
}

/// rho + tau*delta of every coflow of the stream, in admission order.
std::vector<Time> lower_bounds(const RunConfig& cfg) {
  std::vector<Time> lb;
  ArrivalStream stream(stream_options(cfg));
  lb.reserve(static_cast<std::size_t>(stream_options(cfg).num_coflows));
  for (const Coflow* c = stream.peek(); c != nullptr; stream.pop(), c = stream.peek()) {
    lb.push_back(single_coflow_lower_bound(c->demand, kDelta));
  }
  return lb;
}

struct DriverOut {
  std::uint64_t digest = 0;
  OnlineCoreStats stats;
  Time outstanding = 0.0;
  std::vector<Time> cct;
  std::vector<double> plan_s;
  double live_sum = 0.0;
  double cuts = 0.0;
  double wall_s = 0.0;
};

/// Drain-replan over OnlineCore with sim::OnlineDaemon's admission, cut and
/// replan instants (the loop of sched/online.cpp's schedule_online, fed by
/// the stream), so digest and stats must equal the daemon's.  With `sp`,
/// every public call gets a span under one op span per decision.
DriverOut drive(const RunConfig& cfg, SpanRecorder* sp) {
  const auto t_pass = Clock::now();
  const std::size_t n = static_cast<std::size_t>(stream_options(cfg).num_coflows);
  OnlineCore core(OnlinePolicyKind::kDrainReplanRecoMul, core_options());
  core.reserve(n);
  ArrivalStream stream(stream_options(cfg));
  DriverOut out;
  out.plan_s.reserve(n);

  std::int64_t op = 0;
  int root = -1;
  const auto timed = [&](const char* name, auto&& fn) {
    if (sp == nullptr) return fn();
    if (root < 0) root = sp->begin("op.online-stream", -1, op);
    return sp->time(name, root, fn);
  };

  // peek() synthesizes the next coflow, so it is the stream layer's work.
  const Coflow* next = timed("trace.arrival_stream", [&] { return stream.peek(); });
  Time clock = 0.0;
  while (next != nullptr || !core.idle()) {
    while (next != nullptr && next->arrival <= clock + kTimeEps) {
      timed("sched.online_core.submit", [&] { core.submit(*next); });
      stream.pop();
      next = timed("trace.arrival_stream", [&] { return stream.peek(); });
    }
    if (core.idle()) {
      clock = next->arrival;  // fabric idle: jump to the next arrival
      continue;
    }
    const Time next_arrival =
        next != nullptr ? next->arrival : std::numeric_limits<Time>::infinity();
    out.live_sum += static_cast<double>(core.live());
    const auto t0 = Clock::now();
    const Time plan_makespan = timed("sched.online_core.plan", [&] { return core.plan(clock); });
    out.plan_s.push_back(seconds_since(t0));
    // The next arrival cuts the plan unless the plan drains first.
    const Time cut = next_arrival - clock;
    if (cut < plan_makespan) out.cuts += 1.0;
    const Time epoch_end = timed("sched.online_core.commit", [&] { return core.commit(cut); });
    clock = std::isfinite(next_arrival) ? std::max(next_arrival, clock + epoch_end)
                                        : clock + epoch_end;
    if (sp != nullptr) {
      sp->end(root);
      root = -1;
    }
    ++op;
  }
  out.wall_s = seconds_since(t_pass);
  out.digest = core.digest();
  out.stats = core.stats();
  out.outstanding = core.outstanding();
  out.cct = core.cct_by_seq();
  return out;
}

struct DaemonOut {
  sim::OnlineDaemonReport report;
  double wall_s = 0.0;
};

DaemonOut run_daemon(const RunConfig& cfg) {
  sim::OnlineDaemonOptions o;
  o.core = core_options();
  sim::OnlineDaemon daemon(OnlinePolicyKind::kDrainReplanRecoMul, o);
  daemon.reserve(static_cast<std::size_t>(stream_options(cfg).num_coflows));
  ArrivalStream stream(stream_options(cfg));
  sim::PullSource<ArrivalStream> source(stream);
  DaemonOut out;
  const auto t0 = Clock::now();
  out.report = daemon.run(source);
  out.wall_s = seconds_since(t0);
  return out;
}

/// The driver must reproduce the daemon exactly, drain every coflow and
/// conserve demand; returns the first violation, or an empty string.
std::string check(const DriverOut& d, const sim::OnlineDaemonReport& daemon) {
  const OnlineCoreStats& a = d.stats;
  const OnlineCoreStats& b = daemon.stats;
  if (d.digest != daemon.digest) return "driver digest differs from the daemon's";
  if (a.submitted != b.submitted || a.finished != b.finished || a.plans != b.plans ||
      a.commits != b.commits || a.emitted_slices != b.emitted_slices ||
      a.reconfigurations != b.reconfigurations || a.epochs != b.epochs ||
      a.demand_total != b.demand_total || a.delivered_total != b.delivered_total ||
      a.total_weighted_cct != b.total_weighted_cct) {
    return "driver stats differ from the daemon's";
  }
  if (a.finished != a.submitted) return "coflows left unfinished";
  // Finished coflows may strand sub-quantum crumbs (kMinServiceQuantum).
  const double slack = kMinServiceQuantum * static_cast<double>(a.finished) + kTimeEps;
  if (std::abs(a.delivered_total + d.outstanding - a.demand_total) > slack) {
    return "delivered + outstanding != demand";
  }
  return {};
}

}  // namespace

Result run_online_stream(const RunConfig& cfg, SpanRecorder& spans) {
  Result r;
  std::vector<Time> lb;
  r.add("setup_s", median_setup_s(5, [&] { lb = lower_bounds(cfg); }), "s");

  OpTimes plan_times;
  std::vector<double> daemon_s;
  DriverOut first;
  DaemonOut first_daemon;

  const int passes = run_passes(cfg.trace ? 0.0 : cfg.seconds, cfg.trace ? 1 : 2, [&](int pass) {
    try {
      DaemonOut dm = run_daemon(cfg);
      daemon_s.push_back(dm.wall_s);
      DriverOut d = drive(cfg, nullptr);
      r.attempted += d.plan_s.size();
      for (std::size_t k = 0; k < d.plan_s.size(); ++k) plan_times.record(k, d.plan_s[k]);
      const std::string why = check(d, dm.report);
      if (!why.empty()) r.fail("pass " + std::to_string(pass) + ": " + why);
      r.pass_digest(pass, d.digest);
      if (pass == 0) {
        first = std::move(d);
        first_daemon = dm;
      }
    } catch (const std::exception& e) {
      ++r.attempted;
      r.fail(std::string("threw: ") + e.what());
    }
  });

  DriverOut traced;
  if (cfg.trace) {
    try {
      traced = drive(cfg, &spans);
      r.attempted += traced.plan_s.size();
      const std::string why = check(traced, first_daemon.report);
      if (!why.empty()) r.fail("traced pass: " + why);
    } catch (const std::exception& e) {
      ++r.attempted;
      r.fail(std::string("traced pass threw: ") + e.what());
    }
  }

  double cct_sum = 0.0;
  double ratio_sum = 0.0;
  for (std::size_t k = 0; k < first.cct.size() && k < lb.size(); ++k) {
    cct_sum += first.cct[k];
    ratio_sum += first.cct[k] / lb[k];
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, first.cct.size()));
  add_op_latency(r, plan_times.medians());
  const double coflows = static_cast<double>(first.stats.submitted);
  r.add("items_per_s", coflows / quantile(daemon_s, 0.5), "1/s");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.add("cct_mean_s", cct_sum / n, "sim_s");
  r.add("delivered_frac_mean", first.stats.delivered_total / first.stats.demand_total, "frac");
  r.add("wcct_total_s", first.stats.total_weighted_cct, "sim_s");
  r.add("reconfigs_total", first.stats.reconfigurations, "count");
  r.add("cct_over_lb_mean", ratio_sum / n, "ratio");
  r.count("passes", passes);
  r.count("coflows", coflows);
  r.count("daemon_decisions", static_cast<double>(first_daemon.report.decisions));

  if (cfg.trace) {
    const double plans = std::max(1.0, static_cast<double>(traced.plan_s.size()));
    r.layer("sched.online_core.submit.busy_ms", spans.busy_ms("sched.online_core.submit"), "ms");
    r.layer("sched.online_core.plan.busy_ms", spans.busy_ms("sched.online_core.plan"), "ms");
    r.layer("sched.online_core.commit.busy_ms", spans.busy_ms("sched.online_core.commit"), "ms");
    r.layer("sched.online_core.plan.live_mean", traced.live_sum / plans, "coflows");
    r.layer("sched.online_core.cut_frac", traced.cuts / plans, "frac");
    r.layer("sched.online_core.alloc_events", static_cast<double>(traced.stats.alloc_events),
            "count");
    r.layer("sim.online_daemon.overhead_ms", 1e3 * (first_daemon.wall_s - first.wall_s), "ms");
    r.layer("trace.arrival_stream.busy_ms", spans.busy_ms("trace.arrival_stream"), "ms");
    r.layer("trace_overhead_pct", overhead_pct(traced.wall_s, first.wall_s), "%");
  }
  return r;
}

}  // namespace e2e
