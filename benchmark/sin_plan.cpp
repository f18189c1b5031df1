// sin-plan: the paper-scale Reco-Sin path.  One op = reco_sin() +
// execute_all_stop() on one coflow of a 150-port fabric.
#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "bvn/bvn.hpp"
#include "bvn/regularization.hpp"
#include "bvn/stuffing.hpp"
#include "core/lower_bound.hpp"
#include "core/support_index.hpp"
#include "e2e.hpp"
#include "ocs/all_stop_executor.hpp"
#include "sched/reco_sin.hpp"
#include "trace/generator.hpp"

namespace e2e {

namespace {

using namespace reco;

constexpr Time kDelta = GeneratorOptions{}.delta;

struct Input {
  std::vector<Coflow> coflows;
  std::vector<Time> lower_bound;  ///< rho + tau*delta per coflow (Theorem 2)
};

/// Dense coflows are drawn as every kDensePool-th of the first
/// kDensePool * quota dense coflows sorted by nnz.
constexpr int kDensePool = 4;

/// 300 coflows on 150 ports (the paper's trace has 526) holding Table I's
/// density mix exactly: the first 259 sparse and 15 normal coflows of the
/// seed's generator stream, and 26 dense ones spread evenly
/// over the density range.  Nearly all op time is the dense coflows' peel,
/// whose cost grows with nnz; left to chance, the dense count and sizes
/// alone move a pass's time by about 10% from seed to seed.
Input make_input(const RunConfig& cfg) {
  GeneratorOptions g;
  g.num_ports = cfg.tiny ? 24 : 150;
  g.seed = cfg.seed;
  const std::array<std::size_t, 3> quota = cfg.tiny ? std::array<std::size_t, 3>{34, 3, 3}
                                                    : std::array<std::size_t, 3>{259, 15, 26};
  const std::size_t dense = static_cast<std::size_t>(DensityClass::kDense);
  const std::array<std::size_t, 3> want = {quota[0], quota[1], kDensePool * quota[dense]};
  g.num_coflows = 100 * static_cast<int>(want[0] + want[1] + want[2]);
  ArrivalStream stream(g);

  struct Pick {
    int pos;  ///< position in the stream
    int nnz;
    Coflow coflow;
  };
  std::array<std::vector<Pick>, 3> picked;
  for (int pos = 0; picked[0].size() < want[0] || picked[1].size() < want[1] ||
                    picked[2].size() < want[2];
       ++pos, stream.pop()) {
    const Coflow* c = stream.peek();
    if (c == nullptr) throw std::runtime_error("sin-plan: generator stream too short for quotas");
    std::vector<Pick>& bin = picked[static_cast<std::size_t>(c->density_class())];
    if (bin.size() < want[static_cast<std::size_t>(c->density_class())]) {
      bin.push_back({pos, c->demand.nnz(), *c});
    }
  }
  std::vector<Pick>& pool = picked[dense];
  std::stable_sort(pool.begin(), pool.end(),
                   [](const Pick& a, const Pick& b) { return a.nnz < b.nnz; });
  std::vector<Pick> chosen;
  for (std::size_t k = kDensePool / 2; k < pool.size(); k += kDensePool) {
    chosen.push_back(std::move(pool[k]));
  }
  for (std::size_t cls = 0; cls < dense; ++cls) {
    for (Pick& p : picked[cls]) chosen.push_back(std::move(p));
  }
  std::sort(chosen.begin(), chosen.end(),
            [](const Pick& a, const Pick& b) { return a.pos < b.pos; });

  Input in;
  for (Pick& p : chosen) {
    in.lower_bound.push_back(single_coflow_lower_bound(p.coflow.demand, kDelta));
    in.coflows.push_back(std::move(p.coflow));
  }
  return in;
}

struct OpOut {
  CircuitSchedule plan;
  ExecutionResult exec;
};

/// Per-layer counts gathered by the traced pass.
struct Layers {
  double padding_s = 0.0;
  double fill_s = 0.0;
  double nnz = 0.0;
  double rounds = 0.0;
  double used = 0.0;
};

/// The Reco-Sin pipeline called stage by stage, exactly as reco_sin()
/// composes it, with one span per stage.
OpOut traced_op(const Coflow& c, SpanRecorder& sp, std::int64_t op, Layers& t) {
  const int root = sp.begin("op.sin-plan", -1, op);
  OpOut out;
  const SupportIndex indexed =
      sp.time("core.support_index.build", root, [&] { return SupportIndex(c.demand); });
  if (indexed.nnz() > 0) {
    SupportIndex reg = sp.time("bvn.regularize", root, [&] { return regularize(indexed, kDelta); });
    const Time reg_total = reg.total();
    SupportIndex stuffed =
        sp.time("bvn.stuff", root, [&] { return stuff_granular(std::move(reg), kDelta); });
    t.padding_s += reg_total - indexed.total();
    t.fill_s += stuffed.total() - reg_total;
    t.nnz += stuffed.nnz();
    out.plan = sp.time("bvn.peel", root, [&] {
      return bvn_decompose(std::move(stuffed), BvnPolicy::kMaxMinAmortized);
    });
  }
  out.exec = sp.time("ocs.execute", root,
                     [&] { return execute_all_stop(out.plan, c.demand, kDelta); });
  sp.end(root);
  t.rounds += out.plan.num_assignments();
  t.used += out.exec.reconfigurations;
  return out;
}

/// Lemma 1, Theorem 2, the port constraint and full delivery; returns the
/// first violation, or an empty string.
std::string check(const Coflow& c, Time lb, const OpOut& o) {
  if (!o.plan.is_valid(c.demand.n())) return "schedule violates the port constraint";
  for (const CircuitAssignment& a : o.plan.assignments) {
    if (a.duration < kDelta - kTimeEps) return "assignment shorter than delta (Lemma 1)";
  }
  if (!o.exec.satisfied) return "execution left demand unserved";
  if (o.exec.cct > 2.0 * lb + kTimeEps) return "CCT above 2*(rho+tau*delta) (Theorem 2)";
  return {};
}

void digest_op(Digest& d, const OpOut& o) {
  d.add_u64(o.plan.assignments.size());
  for (const CircuitAssignment& a : o.plan.assignments) {
    d.add_f64(a.duration);
    d.add_u64(a.circuits.size());
    for (const Circuit& c : a.circuits) {
      d.add_u64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.in)) << 32) |
                static_cast<std::uint32_t>(c.out));
    }
  }
  d.add_f64(o.exec.cct);
  d.add_u64(static_cast<std::uint64_t>(o.exec.reconfigurations));
}

}  // namespace

Result run_sin_plan(const RunConfig& cfg, SpanRecorder& spans) {
  Result r;
  Input in;
  r.add("setup_s", median_setup_s(5, [&] {
          in = Input{};  // free the previous copy first: peak memory holds one input
          in = make_input(cfg);
        }),
        "s");

  OpTimes times;
  Layers layers;
  double cct_sum = 0.0;
  double ratio_sum = 0.0;
  double wcct = 0.0;
  double reconfigs = 0.0;
  double delivered_sum = 0.0;

  // One op = one coflow; a failed check or an exception fails that op.
  const auto run_op = [&](std::size_t k, Digest& d, auto&& plan_fn) {
    const Coflow& c = in.coflows[k];
    ++r.attempted;
    try {
      const OpOut o = plan_fn(c);
      const std::string why = check(c, in.lower_bound[k], o);
      if (!why.empty()) r.fail("coflow " + std::to_string(k) + ": " + why);
      digest_op(d, o);
      return o;
    } catch (const std::exception& e) {
      r.fail("coflow " + std::to_string(k) + " threw: " + e.what());
      return OpOut{};
    }
  };

  const int passes = run_passes(cfg.trace ? 0.0 : cfg.seconds, cfg.trace ? 1 : 2, [&](int pass) {
    Digest d;
    for (std::size_t k = 0; k < in.coflows.size(); ++k) {
      const OpOut o = run_op(k, d, [&](const Coflow& c) {
        const auto t0 = Clock::now();
        OpOut out;
        out.plan = reco_sin(c.demand, kDelta);
        out.exec = execute_all_stop(out.plan, c.demand, kDelta);
        times.record(k, seconds_since(t0));
        return out;
      });
      if (pass > 0) continue;
      const Coflow& c = in.coflows[k];
      cct_sum += o.exec.cct;
      ratio_sum += o.exec.cct / in.lower_bound[k];
      wcct += c.weight * o.exec.cct;
      reconfigs += o.exec.reconfigurations;
      delivered_sum += 1.0 - o.exec.residual.total() / c.demand.total();
    }
    r.pass_digest(pass, d.value());
  });

  if (cfg.trace) {
    Digest d;
    for (std::size_t k = 0; k < in.coflows.size(); ++k) {
      run_op(k, d, [&](const Coflow& c) { return traced_op(c, spans, std::int64_t(k), layers); });
    }
    if (d.value() != r.digest) r.fail("traced digest differs from untraced");
  }

  const double n = static_cast<double>(in.coflows.size());
  const std::vector<double> op_s = times.medians();
  add_op_latency(r, op_s);
  r.add("items_per_s", n / sum(op_s), "1/s");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.add("cct_mean_s", cct_sum / n, "sim_s");
  r.add("delivered_frac_mean", delivered_sum / n, "frac");
  r.add("wcct_total_s", wcct, "sim_s");
  r.add("reconfigs_total", reconfigs, "count");
  r.add("cct_over_lb_mean", ratio_sum / n, "ratio");
  r.count("passes", passes);

  if (cfg.trace) {
    const double build_ms = spans.busy_ms("core.support_index.build");
    const double regularize_ms = spans.busy_ms("bvn.regularize");
    const double stuff_ms = spans.busy_ms("bvn.stuff");
    const double peel_ms = spans.busy_ms("bvn.peel");
    // The four stages traced_op calls make up reco_sin().
    r.layer("sched.reco_sin.busy_ms", build_ms + regularize_ms + stuff_ms + peel_ms, "ms");
    r.layer("core.support_index.build_ms", build_ms, "ms");
    r.layer("bvn.regularize.busy_ms", regularize_ms, "ms");
    r.layer("bvn.regularize.padding_s", layers.padding_s, "sim_s");
    r.layer("bvn.stuff.busy_ms", stuff_ms, "ms");
    r.layer("bvn.stuff.fill_s", layers.fill_s, "sim_s");
    r.layer("bvn.peel.busy_ms", peel_ms, "ms");
    r.layer("bvn.peel.rounds", layers.rounds, "count");
    r.layer("bvn.peel.nnz", layers.nnz, "count");
    r.layer("bvn.peel.ms_per_round", layers.rounds > 0 ? peel_ms / layers.rounds : 0.0, "ms");
    r.layer("ocs.execute.busy_ms", spans.busy_ms("ocs.execute"), "ms");
    r.layer("ocs.execute.used_frac", layers.rounds > 0 ? layers.used / layers.rounds : 0.0,
            "frac");
    r.layer("trace_overhead_pct", overhead_pct(spans.root_ms() / 1e3, sum(op_s)), "%");
  }
  return r;
}

}  // namespace e2e
