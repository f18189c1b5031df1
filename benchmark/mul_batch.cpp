// mul-batch: the Reco-Mul path.  One op = reco_mul_pipeline() with BSSI
// ordering on one batch of 300 coflows over a 64-port fabric.
#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "core/lower_bound.hpp"
#include "core/slice.hpp"
#include "e2e.hpp"
#include "ocs/slice_executor.hpp"
#include "sched/multi_baselines.hpp"
#include "sched/ordering.hpp"
#include "sched/packet_scheduler.hpp"
#include "sched/reco_mul.hpp"
#include "trace/generator.hpp"

namespace e2e {

namespace {

using namespace reco;

constexpr Time kDelta = GeneratorOptions{}.delta;
constexpr double kC = GeneratorOptions{}.c_threshold;

struct Input {
  std::vector<std::vector<Coflow>> batches;
  std::vector<std::vector<Time>> lower_bound;
};

/// Eight batches of 300 coflows cut from the seed's generator stream, each
/// holding Table I's density mix exactly (259 sparse, 15 normal, 26 dense):
/// packet scheduling costs O(F^2/N) in a batch's F flows, so a batch that
/// drew a few extra dense coflows would take far longer than its peers.
Input make_input(const RunConfig& cfg) {
  GeneratorOptions g;
  g.num_ports = cfg.tiny ? 16 : 64;
  g.seed = cfg.seed;
  const int num_batches = cfg.tiny ? 3 : 8;
  const std::array<int, 3> quota = cfg.tiny ? std::array<int, 3>{26, 2, 2}
                                            : std::array<int, 3>{259, 15, 26};
  g.num_coflows = 100 * num_batches * (quota[0] + quota[1] + quota[2]);
  ArrivalStream stream(g);
  Input in;
  for (int k = 0; k < num_batches; ++k) {
    std::array<int, 3> left = quota;
    std::vector<Coflow>& batch = in.batches.emplace_back();
    std::vector<Time>& lb = in.lower_bound.emplace_back();
    while (left[0] + left[1] + left[2] > 0) {
      const Coflow* c = stream.peek();
      if (c == nullptr) throw std::runtime_error("mul-batch: generator stream too short");
      int& q = left[static_cast<std::size_t>(c->density_class())];
      if (q > 0) {
        --q;
        batch.push_back(*c);
        batch.back().id = static_cast<CoflowId>(batch.size() - 1);  // ids index the CCT vector
        lb.push_back(single_coflow_lower_bound(c->demand, kDelta));
      }
      stream.pop();
    }
  }
  return in;
}

/// Per-layer counts gathered by the traced pass.
struct Layers {
  double flows = 0.0;
  double batches = 0.0;
  double packet_makespan = 0.0;
  double real_makespan = 0.0;
};

/// reco_mul_pipeline() called stage by stage, with one span per stage.
MultiScheduleResult traced_op(const std::vector<Coflow>& batch, SpanRecorder& sp,
                              std::int64_t op, Layers& t) {
  const int root = sp.begin("op.mul-batch", -1, op);
  const std::vector<int> order =
      sp.time("sched.order", root, [&] { return order_coflows(batch, OrderingPolicy::kBssi); });
  const SliceSchedule packet =
      sp.time("sched.packet_schedule", root, [&] { return packet_schedule(batch, order); });
  const RecoMulSchedule transformed = sp.time(
      "sched.reco_mul_transform", root, [&] { return reco_mul_transform(packet, kDelta, kC); });
  MultiScheduleResult res = sp.time("core.slice.finalize", root, [&] {
    MultiScheduleResult m;
    m.schedule = transformed.real;
    m.cct = completion_times(m.schedule, static_cast<int>(batch.size()));
    m.reconfigurations = count_reconfigurations(m.schedule);
    m.total_weighted_cct = total_weighted_cct(m.cct, batch);
    return m;
  });
  sp.end(root);
  t.flows += static_cast<double>(packet.size());
  t.batches += res.reconfigurations;
  t.packet_makespan += makespan(packet);
  t.real_makespan += makespan(res.schedule);
  return res;
}

/// The volume each real-time slice moves: its duration less one delta for
/// every reconfiguration that fires strictly inside it, since the all-stop
/// fabric halts every circuit while it reconfigures.
SliceSchedule delivered_volume(const SliceSchedule& real) {
  const std::vector<Time> starts = start_batches(real);
  SliceSchedule out(real);
  for (FlowSlice& s : out) {
    const auto lo = std::upper_bound(starts.begin(), starts.end(), s.start + kTimeEps);
    const auto hi = std::lower_bound(starts.begin(), starts.end(), s.end - kTimeEps);
    if (hi > lo) s.end -= kDelta * static_cast<double>(hi - lo);
  }
  return out;
}

void digest_op(Digest& d, const MultiScheduleResult& m) {
  d.add_u64(m.schedule.size());
  for (const FlowSlice& s : m.schedule) {
    d.add_f64(s.start);
    d.add_f64(s.end);
    d.add_u64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.src)) << 32) |
              static_cast<std::uint32_t>(s.dst));
    d.add_u64(static_cast<std::uint64_t>(s.coflow));
  }
  for (const Time c : m.cct) d.add_f64(c);
  d.add_u64(static_cast<std::uint64_t>(m.reconfigurations));
  d.add_f64(m.total_weighted_cct);
}

}  // namespace

Result run_mul_batch(const RunConfig& cfg, SpanRecorder& spans) {
  Result r;
  Input in;
  r.add("setup_s", median_setup_s(5, [&] {
          in = Input{};  // free the previous copy first: peak memory holds one input
          in = make_input(cfg);
        }),
        "s");

  OpTimes times;
  Layers layers;
  double coflows = 0.0;
  double cct_sum = 0.0;
  double ratio_sum = 0.0;
  double wcct = 0.0;
  double reconfigs = 0.0;
  double demand = 0.0;
  double delivered = 0.0;

  // One op = one batch; it fails on an infeasible schedule, on demand not
  // delivered exactly, or on an exception.
  const auto run_op = [&](std::size_t k, Digest& d, bool first_pass, auto&& plan_fn) {
    const std::vector<Coflow>& batch = in.batches[k];
    ++r.attempted;
    try {
      const MultiScheduleResult m = plan_fn(batch);
      const SliceSchedule moved = delivered_volume(m.schedule);
      if (!is_port_feasible(m.schedule)) {
        r.fail("batch " + std::to_string(k) + ": schedule is not port-feasible");
      } else if (!satisfies_demands(moved, batch)) {
        r.fail("batch " + std::to_string(k) + ": delivered volume != demand");
      }
      digest_op(d, m);
      if (!first_pass) return;
      for (const Coflow& c : batch) {
        cct_sum += m.cct[static_cast<std::size_t>(c.id)];
        ratio_sum += m.cct[static_cast<std::size_t>(c.id)] /
                     in.lower_bound[k][static_cast<std::size_t>(c.id)];
        demand += c.demand.total();
      }
      for (const FlowSlice& s : moved) delivered += s.duration();
      coflows += static_cast<double>(batch.size());
      wcct += m.total_weighted_cct;
      reconfigs += m.reconfigurations;
    } catch (const std::exception& e) {
      r.fail("batch " + std::to_string(k) + " threw: " + e.what());
    }
  };

  const int passes = run_passes(cfg.trace ? 0.0 : cfg.seconds, cfg.trace ? 1 : 2, [&](int pass) {
    Digest d;
    for (std::size_t k = 0; k < in.batches.size(); ++k) {
      run_op(k, d, pass == 0, [&](const std::vector<Coflow>& batch) {
        const auto t0 = Clock::now();
        MultiScheduleResult m = reco_mul_pipeline(batch, kDelta, kC, OrderingPolicy::kBssi);
        times.record(k, seconds_since(t0));
        return m;
      });
    }
    r.pass_digest(pass, d.value());
  });

  if (cfg.trace) {
    Digest d;
    for (std::size_t k = 0; k < in.batches.size(); ++k) {
      run_op(k, d, false, [&](const std::vector<Coflow>& batch) {
        return traced_op(batch, spans, static_cast<std::int64_t>(k), layers);
      });
    }
    if (d.value() != r.digest) r.fail("traced digest differs from untraced");
  }

  const std::vector<double> op_s = times.medians();
  add_op_latency(r, op_s);
  r.add("items_per_s", coflows / sum(op_s), "1/s");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.add("cct_mean_s", cct_sum / coflows, "sim_s");
  r.add("delivered_frac_mean", delivered / demand, "frac");
  r.add("wcct_total_s", wcct, "sim_s");
  r.add("reconfigs_total", reconfigs, "count");
  r.add("cct_over_lb_mean", ratio_sum / coflows, "ratio");
  r.count("passes", passes);

  if (cfg.trace) {
    const double packet_ms = spans.busy_ms("sched.packet_schedule");
    r.layer("sched.order.busy_ms", spans.busy_ms("sched.order"), "ms");
    r.layer("sched.packet_schedule.busy_ms", packet_ms, "ms");
    r.layer("sched.packet_schedule.flows", layers.flows, "count");
    r.layer("sched.packet_schedule.us_per_flow",
            layers.flows > 0 ? 1e3 * packet_ms / layers.flows : 0.0, "us");
    r.layer("sched.reco_mul_transform.busy_ms", spans.busy_ms("sched.reco_mul_transform"), "ms");
    r.layer("sched.reco_mul_transform.batches", layers.batches, "count");
    r.layer("sched.reco_mul_transform.stretch",
            layers.packet_makespan > 0 ? layers.real_makespan / layers.packet_makespan : 0.0,
            "ratio");
    r.layer("core.slice.finalize_ms", spans.busy_ms("core.slice.finalize"), "ms");
    r.layer("trace_overhead_pct", overhead_pct(spans.root_ms() / 1e3, sum(op_s)), "%");
  }
  return r;
}

}  // namespace e2e
