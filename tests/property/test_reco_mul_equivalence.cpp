// Reco-Mul's transform sorts each plan once and walks that start order for
// start batching, inflation and the reconfiguration count.  These tests
// hold it to the sort-per-stage transform in reco_mul_oracle.hpp: pseudo
// and real schedules bit for bit, and the same reconfiguration count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/slice.hpp"
#include "core/support_index.hpp"
#include "obs/obs.hpp"
#include "ocs/slice_executor.hpp"
#include "property/reco_mul_oracle.hpp"
#include "sched/online_core.hpp"
#include "sched/ordering.hpp"
#include "sched/packet_scheduler.hpp"
#include "sched/reco_mul.hpp"
#include "testing_util.hpp"
#include "trace/generator.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

constexpr Time kE = kTimeEps;

::testing::AssertionResult bit_identical(const SliceSchedule& got, const SliceSchedule& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << got.size() << " slices, oracle " << want.size();
  }
  for (std::size_t f = 0; f < got.size(); ++f) {
    const FlowSlice& g = got[f];
    const FlowSlice& w = want[f];
    if (std::bit_cast<std::uint64_t>(g.start) != std::bit_cast<std::uint64_t>(w.start) ||
        std::bit_cast<std::uint64_t>(g.end) != std::bit_cast<std::uint64_t>(w.end) ||
        g.src != w.src || g.dst != w.dst || g.coflow != w.coflow) {
      return ::testing::AssertionFailure()
             << "slice " << f << ": [" << g.start << ", " << g.end << ") vs oracle ["
             << w.start << ", " << w.end << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// `order` lists every slice once, ascending in pseudo and in real start.
::testing::AssertionResult order_is_ascending_permutation(const RecoMulSchedule& r) {
  if (r.order.size() != r.pseudo.size()) {
    return ::testing::AssertionFailure() << "order has " << r.order.size() << " entries";
  }
  std::vector<char> seen(r.order.size(), 0);
  for (std::size_t k = 0; k < r.order.size(); ++k) {
    const std::size_t f = r.order[k];
    if (f >= seen.size() || seen[f]) return ::testing::AssertionFailure() << "entry " << k;
    seen[f] = 1;
    if (k == 0) continue;
    const std::size_t prev = r.order[k - 1];
    if (r.pseudo[prev].start > r.pseudo[f].start || r.real[prev].start > r.real[f].start) {
      return ::testing::AssertionFailure() << "starts descend at entry " << k;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Transform `packet` both ways and compare; returns the oracle's result.
oracle::RecoMulResult expect_matches_oracle(const SliceSchedule& packet, Time delta, double c,
                                            RecoMulScratch& scratch, RecoMulSchedule& got,
                                            const std::string& where) {
  oracle::RecoMulResult want = oracle::reco_mul_transform(packet, delta, c);
  reco_mul_transform_into(packet, delta, c, scratch, got);
  EXPECT_TRUE(bit_identical(got.pseudo, want.pseudo)) << where << " (pseudo)";
  EXPECT_TRUE(bit_identical(got.real, want.real)) << where << " (real)";
  EXPECT_EQ(got.reconfigurations, want.reconfigurations) << where;
  EXPECT_EQ(got.reconfigurations, count_reconfigurations(got.real)) << where;
  EXPECT_TRUE(order_is_ascending_permutation(got)) << where;
  return want;
}

TEST(RecoMulEquivalence, RandomWorkloadsPastTheThreshold) {
  // Demands satisfy d >= c * delta0.  Transforming at delta0 * scale breaks
  // Lemma 2's assumption for every scale > 1 (the Fig. 9(a) regime), so
  // legalization pushes slices, and often pushes one past a later start,
  // which sends the order through its second sort.  One scratch serves every
  // case, as in the online core, so stale buffer contents would show.
  const Time delta0 = 0.01;
  Rng rng(167);
  RecoMulScratch scratch;
  RecoMulSchedule got;
  int cases = 0;
  int pushed = 0;
  int reordered = 0;
  for (const double c : {1.0, 2.0, 4.0, 6.25, 9.0}) {
    for (const double scale : {1.0, 3.0, 10.0, 30.0, 100.0}) {
      for (int trial = 0; trial < 8; ++trial) {
        const int ports = 3 + trial % 4;
        const auto coflows = testing::random_workload(rng, 4 + 2 * trial, ports, delta0, c);
        const SliceSchedule packet = packet_schedule(coflows, bssi_order(coflows));
        const Time delta = delta0 * scale;
        const std::string where = "c=" + std::to_string(c) + " scale=" + std::to_string(scale) +
                                  " trial " + std::to_string(trial);
        const oracle::RecoMulResult want =
            expect_matches_oracle(packet, delta, c, scratch, got, where);
        ++cases;
        if (want.pushed > 0) ++pushed;
        if (want.reordered) ++reordered;
      }
    }
  }
  // Both legalization paths must be exercised, or this test proves little.
  EXPECT_GE(4 * pushed, cases) << pushed << " of " << cases << " cases pushed a slice";
  EXPECT_GE(10 * reordered, cases) << reordered << " of " << cases << " cases reordered starts";
}

TEST(RecoMulEquivalence, EpsilonEdgeInflation) {
  // Starts at t, t + 0.9 eps and t + 1.5 eps: the second joins t's batch,
  // the third opens a new one, yet t + 1.5 eps <= (t + 0.9 eps) + eps, so
  // the middle slice waits for both.  Ends sit at batch times and up to
  // 1.5 eps either side, so some slices last under 2 eps, and each must
  // still end at or after its start.  delta down to eps scale makes real
  // starts eps-close too.  Slice positions are shuffled so the sort is
  // exercised.
  Rng rng(168);
  for (const Time t : {0.25, 1.0, 3.0}) {
    const std::vector<Time> starts{0.0, t, t + 0.9 * kE, t + 1.5 * kE};
    const std::vector<Time> ends{t, t + 1.5 * kE, 2 * t};
    SliceSchedule pseudo;
    for (const Time s : starts) {
      for (const Time b : ends) {
        for (const double off : {-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5}) {
          const Time end = b + off * kE;
          const PortId port = static_cast<PortId>(pseudo.size());
          if (end > s) pseudo.push_back({s, end, port, port, 0});
        }
      }
    }
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      for (std::size_t k = pseudo.size(); k > 1; --k) {
        std::swap(pseudo[k - 1], pseudo[rng.uniform_int(static_cast<int>(k))]);
      }
      std::vector<std::size_t> order(pseudo.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return pseudo[a].start < pseudo[b].start;
      });
      std::vector<Time> batches;
      SliceSchedule along_order;
      for (const Time delta : {0.1 * kE, 0.4 * kE, kE, 2.5 * kE, 1e-3, 0.5}) {
        const std::string where = "t=" + std::to_string(t) + " delta=" + std::to_string(delta) +
                                  " shuffle " + std::to_string(shuffle);
        const SliceSchedule want = oracle::inflate_pseudo_time(pseudo, delta);
        for (const FlowSlice& s : want) EXPECT_GE(s.end, s.start) << where;
        EXPECT_TRUE(bit_identical(inflate_pseudo_time(pseudo, delta), want)) << where;
        const int count = inflate_in_start_order(pseudo, order, delta, batches, along_order);
        EXPECT_TRUE(bit_identical(along_order, want)) << where;
        EXPECT_EQ(count, static_cast<int>(oracle::start_batches(want).size())) << where;
      }
    }
  }

  // The three-start case, by hand: batches {t, t + 1.5 eps}.
  const Time t = 1.0;
  const Time delta = 0.5;
  const SliceSchedule three{{t, t + 1.0, 0, 0, 0},
                            {t + 0.9 * kE, t + 1.0, 1, 1, 0},
                            {t + 1.5 * kE, t + 1.0, 2, 2, 0}};
  EXPECT_EQ(start_batches(three).size(), 2u);
  const SliceSchedule real = inflate_pseudo_time(three, delta);
  EXPECT_EQ(real[0].start, t + delta);
  EXPECT_EQ(real[1].start, (t + 0.9 * kE) + 2 * delta);
  EXPECT_EQ(real[2].start, (t + 1.5 * kE) + 2 * delta);
  EXPECT_EQ(count_reconfigurations(real), 2);  // the last two are 0.6 eps apart

  // Real starts chain too.  Starts t, t + 0.6 eps and t + 1.2 eps inflate at
  // delta = 0.1 eps to t + 0.1 eps, t + 0.8 eps and t + 1.4 eps.  Each is
  // within eps of the one before, but the last is 1.3 eps past the batch it
  // would join: two real batches, not one.
  const SliceSchedule chain{{t, t + 1.0, 0, 0, 0},
                            {t + 0.6 * kE, t + 1.0, 1, 1, 0},
                            {t + 1.2 * kE, t + 1.0, 2, 2, 0}};
  std::vector<Time> batches;
  SliceSchedule chained;
  EXPECT_EQ(inflate_in_start_order(chain, {0, 1, 2}, 0.1 * kE, batches, chained), 2);
  EXPECT_EQ(count_reconfigurations(chained), 2);
}

TEST(RecoMulEquivalence, EpsilonEdgeLegalization) {
  // Packet schedules whose legalization pushes slices to eps-close starts.
  // With c = 1 the quantum is delta and the stretch 2; every blocker starts
  // at 0 and every follower at 1e-12, which snaps to 0 but sorts after the
  // blocker on its port, so legalization pushes the follower to the
  // blocker's end: t + 1.5 eps, t + 0.9 eps or t.  Equal packet starts go
  // in index order, so each follower is pushed past the ones after it and
  // the order is built again.  Slices that end at those starts, plus or
  // minus eps, ride along on their own ports.
  RecoMulScratch scratch;
  RecoMulSchedule got;
  for (const Time t : {0.25, 1.0, 3.0}) {
    SliceSchedule packet;
    PortId port = 0;
    for (const double lag : {1.5, 0.9, 0.0}) {
      const Time release = t + lag * kE;
      packet.push_back({0.0, release, port, port, 0});
      packet.push_back({1e-12, 1e-12 + 0.5, port, port + 1, 1});
      port += 2;
      for (const double off : {-1.0, -0.5, 0.5, 1.0}) {
        packet.push_back({0.0, release + off * kE, port, port, 2});
        ++port;
      }
    }
    for (const Time delta : {0.7 * kE, 1e-3, 0.5}) {
      const std::string where = "t=" + std::to_string(t) + " delta=" + std::to_string(delta);
      const oracle::RecoMulResult want =
          expect_matches_oracle(packet, delta, 1.0, scratch, got, where);
      EXPECT_GT(want.pushed, 0u) << where;
      EXPECT_TRUE(want.reordered) << where;
    }
  }
}

/// Transform `packet` and a random permutation of it: slice k of the
/// permuted input is slice perm[k] of `packet`, so pseudo[k] and real[k]
/// must be the unpermuted transform's pseudo[perm[k]] and real[perm[k]].
void expect_permutation_invariant(const SliceSchedule& packet, Time delta, double c, Rng& rng,
                                  const std::string& where) {
  const RecoMulSchedule base = reco_mul_transform(packet, delta, c);
  std::vector<std::size_t> perm(packet.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (int shuffle = 0; shuffle < 3; ++shuffle) {
    for (std::size_t k = perm.size(); k > 1; --k) {
      std::swap(perm[k - 1], perm[rng.uniform_int(static_cast<int>(k))]);
    }
    SliceSchedule permuted;
    for (const std::size_t f : perm) permuted.push_back(packet[f]);
    const RecoMulSchedule got = reco_mul_transform(permuted, delta, c);
    SliceSchedule want_pseudo;
    SliceSchedule want_real;
    for (const std::size_t f : perm) {
      want_pseudo.push_back(base.pseudo[f]);
      want_real.push_back(base.real[f]);
    }
    const std::string at = where + " shuffle " + std::to_string(shuffle);
    EXPECT_TRUE(bit_identical(got.pseudo, want_pseudo)) << at << " (pseudo)";
    EXPECT_TRUE(bit_identical(got.real, want_real)) << at << " (real)";
    EXPECT_EQ(got.reconfigurations, base.reconfigurations) << at;
  }
}

TEST(RecoMulEquivalence, PermutingSlicesPermutesTheSchedules) {
  // The transform's output is a function of the packet schedule's slices,
  // not of the order they are listed in, whenever no two slices share a
  // port and an exact packet start (docs/ALGORITHMS.md, "One start order
  // per plan").  Generator schedules, online residual plans and a plan of
  // many equal starts on disjoint ports, where a comparison sort of more
  // than 16 elements partitions, all qualify.
  Rng rng(174);
  const Time delta0 = 0.01;
  for (const double c : {1.0, 4.0, 9.0}) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto coflows = testing::random_workload(rng, 4 + 3 * trial, 4 + trial, delta0, c);
      const SliceSchedule packet = packet_schedule(coflows, bssi_order(coflows));
      for (const double scale : {1.0, 30.0}) {
        expect_permutation_invariant(packet, delta0 * scale, c, rng,
                                     "generator c=" + std::to_string(c) + " trial " +
                                         std::to_string(trial) + " scale " +
                                         std::to_string(scale));
      }
    }
  }

  // Online residual plans: generator demands, partly served, list-scheduled
  // through the residual overload under the online core's BSSI order.
  GeneratorOptions g;
  g.num_ports = 16;
  g.num_coflows = 12;
  PacketScratch packet_scratch;
  OrderingScratch ordering_scratch;
  for (int trial = 0; trial < 6; ++trial) {
    g.seed = 175 + static_cast<std::uint64_t>(trial);
    const std::vector<Coflow> coflows = generate_workload(g);
    std::vector<SupportIndex> residuals;
    residuals.reserve(coflows.size());
    for (const Coflow& cf : coflows) {
      residuals.emplace_back(cf.demand);
      SupportIndex& r = residuals.back();
      for (int i = 0; i < r.n(); ++i) {
        for (int j = 0; j < r.n(); ++j) {
          if (r.at(i, j) == 0.0 || rng.uniform() < 0.5) continue;
          r.set(i, j, rng.uniform() < 0.3 ? 0.0 : r.at(i, j) * rng.uniform(0.1, 1.0));
        }
      }
    }
    std::vector<const SupportIndex*> views;
    std::vector<CoflowId> ids;
    std::vector<double> weights;
    for (std::size_t k = 0; k < residuals.size(); ++k) {
      views.push_back(&residuals[k]);
      ids.push_back(static_cast<CoflowId>(k));
      weights.push_back(coflows[k].weight);
    }
    std::vector<int> order;
    order_residuals_into(views, weights, OrderingPolicy::kBssi, ordering_scratch, order);
    SliceSchedule packet;
    packet_schedule_into(views, ids, order, packet_scratch, packet);
    for (const double scale : {1.0, 30.0}) {
      expect_permutation_invariant(packet, g.delta * scale, g.c_threshold, rng,
                                   "residual trial " + std::to_string(trial) + " scale " +
                                       std::to_string(scale));
    }
  }

  // 24 slices at packet start 0 on disjoint ports, plus a few later ones.
  SliceSchedule zeros;
  for (PortId p = 0; p < 24; ++p) zeros.push_back({0.0, 0.5 + 0.01 * p, p, p, p % 3});
  for (PortId p = 0; p < 6; ++p) zeros.push_back({0.5 + 0.01 * p, 1.0, p, p, 3});
  expect_permutation_invariant(zeros, 0.01, 4.0, rng, "zeros");
}

TEST(RecoMulEquivalence, OnlineDrainReplanCountsAlongThePlanOrder) {
  // The online core counts a commit's reconfigurations along the plan's
  // start order instead of sorting the kept starts.  Run drain-replan at a
  // delta 30x the one the workload's demands were drawn against, so
  // legalization pushes and reorders, and cut every epoch at the next
  // arrival, so commits keep strict prefixes of the order.
  GeneratorOptions g;
  g.num_ports = 8;
  g.num_coflows = 60;
  g.seed = 169;
  g.mean_interarrival = 0.01;
  const std::vector<Coflow> coflows = generate_workload(g);
  OnlineCoreOptions options;
  options.delta = 30 * g.delta;
  options.c_threshold = g.c_threshold;

  const bool was_enabled = obs::enabled();
  obs::reset();
  obs::set_enabled(true);
  OnlineCore core(OnlinePolicyKind::kDrainReplanRecoMul, options);
  core.reserve(coflows.size());
  std::size_t next = 0;
  Time clock = 0.0;
  int cut_commits = 0;  // commits that cancelled the tail of their plan
  while (next < coflows.size() || !core.idle()) {
    while (next < coflows.size() && coflows[next].arrival <= clock + kTimeEps) {
      core.submit(coflows[next++]);
    }
    if (core.idle()) {
      clock = coflows[next].arrival;
      continue;
    }
    const Time plan_end = core.plan(clock);
    if (next < coflows.size()) {
      const Time arrival = coflows[next].arrival;
      const Time kept_end = core.commit(arrival - clock);
      if (kept_end < plan_end) ++cut_commits;
      clock = std::max(arrival, clock + kept_end);
    } else {
      clock += core.commit(std::numeric_limits<Time>::infinity());
    }
  }
  const double pushes = obs::metrics().counter("reco_mul.legalization_pushes").value();
  const double reorders = obs::metrics().counter("reco_mul.reorders").value();
  obs::set_enabled(was_enabled);
  obs::reset();

  EXPECT_EQ(core.stats().finished, coflows.size());
  EXPECT_GT(pushes, 0.0);
  EXPECT_GT(reorders, 0.0);
  EXPECT_GT(cut_commits, 0);
  EXPECT_TRUE(is_port_feasible(core.schedule()));
  EXPECT_EQ(core.stats().reconfigurations, count_reconfigurations(core.schedule()));
}

}  // namespace
}  // namespace reco
