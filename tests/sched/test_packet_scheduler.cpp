#include "sched/packet_scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "core/support_index.hpp"
#include "sched/ordering.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

/// PortTimeline::earliest_fit with fresh cursors: the scan starts at the
/// first stored interval.
Time fit(const PortTimeline& t, Time at, Time d) {
  std::size_t k = 0;
  std::size_t scan_start = 0;
  return t.earliest_fit(at, d, k, scan_start);
}

Coflow make_coflow(int id, const Matrix& demand) {
  Coflow c;
  c.id = id;
  c.demand = demand;
  return c;
}

TEST(PacketScheduler, EmptyWorkload) {
  EXPECT_TRUE(packet_schedule({}, {}).empty());
}

TEST(PacketScheduler, SingleFlowStartsAtZero) {
  Matrix d(2);
  d.at(0, 1) = 3.0;
  const SliceSchedule s = packet_schedule({make_coflow(0, d)}, {0});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s[0].start, 0.0);
  EXPECT_DOUBLE_EQ(s[0].end, 3.0);
}

TEST(PacketScheduler, FlowsOnSamePortSerialize) {
  Matrix d(2);
  d.at(0, 0) = 2.0;
  d.at(0, 1) = 3.0;  // same ingress port 0
  const SliceSchedule s = packet_schedule({make_coflow(0, d)}, {0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_TRUE(is_port_feasible(s));
  // LPT: the 3-unit flow first, then the 2-unit.
  EXPECT_DOUBLE_EQ(s[0].duration(), 3.0);
  EXPECT_DOUBLE_EQ(s[1].start, 3.0);
}

TEST(PacketScheduler, DisjointFlowsRunInParallel) {
  Matrix d(2);
  d.at(0, 0) = 2.0;
  d.at(1, 1) = 2.0;
  const SliceSchedule s = packet_schedule({make_coflow(0, d)}, {0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].start, 0.0);
  EXPECT_DOUBLE_EQ(s[1].start, 0.0);
}

TEST(PacketScheduler, OrderDeterminesPriority) {
  Matrix a(2);
  a.at(0, 0) = 5.0;
  Matrix b(2);
  b.at(0, 0) = 1.0;
  const std::vector<Coflow> coflows{make_coflow(0, a), make_coflow(1, b)};
  const auto cct01 = completion_times(packet_schedule(coflows, {0, 1}), 2);
  EXPECT_DOUBLE_EQ(cct01[0], 5.0);
  EXPECT_DOUBLE_EQ(cct01[1], 6.0);
  const auto cct10 = completion_times(packet_schedule(coflows, {1, 0}), 2);
  EXPECT_DOUBLE_EQ(cct10[1], 1.0);
  EXPECT_DOUBLE_EQ(cct10[0], 6.0);
}

TEST(PacketScheduler, NonPreemptiveOneSlicePerFlow) {
  Rng rng(141);
  const auto coflows = testing::random_workload(rng, 6, 4, 0.01, 3.0);
  const SliceSchedule s = packet_schedule(coflows, sebf_order(coflows));
  std::map<std::tuple<int, int, int>, int> slices_per_flow;
  for (const FlowSlice& f : s) slices_per_flow[{f.coflow, f.src, f.dst}] += 1;
  for (const auto& [key, count] : slices_per_flow) EXPECT_EQ(count, 1);
}

TEST(PacketScheduler, SizeEpsFlowStartsAtZero) {
  // The boundary of the fit tolerance: a flow of exactly kTimeEps passes
  // approx_zero, and a gap of d - kTimeEps = 0 admits it at t = 0 even
  // though its ingress port is busy from 0.
  Matrix d(2);
  d.at(0, 0) = 3.0;
  d.at(0, 1) = kTimeEps;
  const SliceSchedule s = packet_schedule({make_coflow(0, d)}, {0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[1].start, 0.0);
  EXPECT_EQ(s[1].end, kTimeEps);
}

/// The message of the std::invalid_argument `fn` throws, or "" if none.
template <class Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(PacketScheduler, RejectsOrderEntryOutOfRange) {
  Matrix d(2);
  d.at(0, 1) = 1.0;
  const std::vector<Coflow> coflows{make_coflow(0, d), make_coflow(1, d)};
  EXPECT_NE(invalid_argument_message([&] { packet_schedule(coflows, {0, 2}); })
                .find("order entry 2 is out of range"),
            std::string::npos);
  EXPECT_NE(invalid_argument_message([&] { packet_schedule(coflows, {-1}); }).find("order entry -1"),
            std::string::npos);
  EXPECT_NE(invalid_argument_message([&] { packet_schedule({}, {0}); }).find("order entry 0"),
            std::string::npos);

  const SupportIndex r(d);
  PacketScratch scratch;
  SliceSchedule out;
  EXPECT_NE(invalid_argument_message([&] { packet_schedule_into({&r}, {0}, {1}, scratch, out); })
                .find("order entry 1 is out of range"),
            std::string::npos);
}

TEST(PacketScheduler, RejectsMixedPortCounts) {
  Matrix small(2);
  small.at(0, 1) = 1.0;
  Matrix large(3);
  large.at(2, 2) = 1.0;
  const std::vector<Coflow> coflows{make_coflow(0, small), make_coflow(1, large)};
  EXPECT_NE(invalid_argument_message([&] { packet_schedule(coflows, {0, 1}); })
                .find("coflow 1 has 3 ports, the first has 2"),
            std::string::npos);

  const SupportIndex a(small);
  const SupportIndex b(large);
  PacketScratch scratch;
  SliceSchedule out;
  EXPECT_NE(
      invalid_argument_message([&] { packet_schedule_into({&a, &b}, {0, 1}, {1, 0}, scratch, out); })
          .find("coflow 1 has 3 ports"),
      std::string::npos);
}

TEST(PortTimeline, CoalescesTouchingAndOverlappingIntervals) {
  PortTimeline t;
  t.insert(0.0, 1.0);
  t.insert(1.0, 2.0);                   // exact touch
  t.insert(2.0 - 0.5 * kTimeEps, 3.0);  // overlap shorter than kTimeEps
  EXPECT_EQ(t.size(), 1u);
  t.insert(4.0, 5.0);
  EXPECT_EQ(t.size(), 2u);
  t.insert(3.0, 4.0);  // closes the gap between the two
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(fit(t, 0.0, 1.0), 5.0);
  EXPECT_EQ(fit(t, 6.0, 1.0), 6.0);
}

TEST(PortTimeline, KeepsGapsShorterThanEps) {
  // A positive gap is never merged away, whichever side is inserted first:
  // a flow whose size is within kTimeEps of it still fits there.
  for (const bool left_first : {true, false}) {
    PortTimeline t;
    if (left_first) t.insert(0.0, 1.0);
    t.insert(1.0 + 0.5 * kTimeEps, 2.0);
    if (!left_first) t.insert(0.0, 1.0);
    EXPECT_EQ(t.size(), 2u) << "left_first=" << left_first;
    EXPECT_EQ(fit(t, 0.5, 1.2 * kTimeEps), 1.0) << "left_first=" << left_first;
    EXPECT_EQ(fit(t, 0.5, 2.0 * kTimeEps), 2.0) << "left_first=" << left_first;
  }
}

TEST(PortTimeline, SizeEpsSkipsTouchPoints) {
  // A d <= kTimeEps fits even a zero-length gap.  Merging removes the
  // zero-length gap where two intervals touch, so from inside the chain the
  // answer is its end; the unmerged intervals would have given the touch
  // point 1.  From t = 0, the only point the schedulers query such a d,
  // both give 0.
  PortTimeline t;
  t.insert(0.0, 1.0);
  t.insert(1.0, 2.0);
  EXPECT_EQ(fit(t, 0.5, kTimeEps), 2.0);
  EXPECT_EQ(fit(t, 0.0, kTimeEps), 0.0);
}

TEST(PortTimeline, KeepsAGapEqualToFloorLessEps) {
  // Busy [0, g] and [2g, 3g] with g = min_len - kTimeEps: the gap between
  // them is g bit for bit, so a min_len flow fits it and it must stay.
  const Time min_len = 1.0;
  const Time g = min_len - kTimeEps;
  ASSERT_EQ(2 * g - g, g);
  PortTimeline t;
  t.reset(min_len);
  t.insert(0.0, g);
  t.insert(2 * g, 3 * g);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(fit(t, 0.0, min_len), g);
}

TEST(PortTimeline, FillsAGapJustBelowFloorLessEps) {
  // One ulp narrower than min_len - kTimeEps, no flow of the floor's length
  // or longer fits the gap: it is filled, whichever side is inserted first.
  const Time min_len = 1.0;
  const Time g = min_len - kTimeEps;
  const Time e = std::nextafter(g, 2.0);
  ASSERT_EQ(2 * g - e, std::nextafter(g, 0.0));
  for (const bool left_first : {true, false}) {
    PortTimeline t;
    t.reset(min_len);
    if (left_first) t.insert(0.0, e);
    t.insert(2 * g, 3 * g);
    if (!left_first) t.insert(0.0, e);
    EXPECT_EQ(t.size(), 1u) << "left_first=" << left_first;
    // A query landing inside the filled gap leaves at the merged end, as
    // the scan over the unfilled intervals would.
    EXPECT_EQ(fit(t, 1.5 * g, min_len), 3 * g) << "left_first=" << left_first;
    EXPECT_EQ(fit(t, 0.0, 2.0), 3 * g) << "left_first=" << left_first;
  }
}

TEST(PortTimeline, QueryBelowFloorThrows) {
  PortTimeline t;
  t.reset(0.5);
  t.insert(0.0, 1.0);
  EXPECT_EQ(fit(t, 0.0, 0.5), 1.0);
  try {
    fit(t, 0.0, 0.25);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PortTimeline::earliest_fit"), std::string::npos) << what;
    EXPECT_NE(what.find("0.25"), std::string::npos) << what;
    EXPECT_NE(what.find("floor 0.5"), std::string::npos) << what;
  }
}

TEST(PortTimeline, CursorRestartsAtTheScanStart) {
  // Egress answers kTimeEps; ingress, asked at kTimeEps, scans past
  // [1.5eps, 3eps) to 3eps.  The insert cursor it hands back is where that
  // scan started, so asking again at kTimeEps from it still sees the
  // interval.  The query cursor, where the scan stopped, is past it: from
  // there kTimeEps would be the answer, on top of [1.5eps, 3eps).
  PortTimeline in;
  PortTimeline eg;
  in.insert(1.5 * kTimeEps, 3 * kTimeEps);
  eg.insert(0.0, kTimeEps);
  std::size_t k = 0;
  std::size_t scan_start = 0;
  EXPECT_EQ(in.earliest_fit(kTimeEps, 2 * kTimeEps, k, scan_start), 3 * kTimeEps);
  EXPECT_EQ(scan_start, 0u);  // where the scan started
  EXPECT_EQ(k, 1u);           // where it stopped
  k = scan_start;
  EXPECT_EQ(in.earliest_fit(kTimeEps, 2 * kTimeEps, k, scan_start), 3 * kTimeEps);
  EXPECT_EQ(place_common(in, eg, 2 * kTimeEps), 3 * kTimeEps);

  // place_common accepts kTimeEps although ingress's check answered
  // 1.8eps, past two intervals that end in between.  Inserting from where
  // that scan stopped would skip both, and the one step back reaches only
  // the second; from where it started, the flow absorbs both.
  PortTimeline a;
  PortTimeline b;
  a.insert(1.1 * kTimeEps, 1.3 * kTimeEps);
  a.insert(1.5 * kTimeEps, 1.8 * kTimeEps);
  b.insert(0.0, kTimeEps);
  EXPECT_EQ(place_common(a, b, 2 * kTimeEps), kTimeEps);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.intervals()[0].first, kTimeEps);
  EXPECT_EQ(a.intervals()[0].second, kTimeEps + 2 * kTimeEps);
}

/// A timeline filled the way list scheduling fills one: `flows` placements
/// of random length at or above `min_len`, each at the earliest fit after a
/// random release time, some of them touching, some leaving gaps.
PortTimeline random_timeline(Rng& rng, Time min_len, int flows) {
  PortTimeline t;
  t.reset(min_len);
  for (int f = 0; f < flows; ++f) {
    const Time d = min_len * rng.uniform(1.0, 4.0);
    const Time s = fit(t, rng.uniform(0.0, 3.0 * min_len * flows), d);
    t.insert(s, s + d);
  }
  return t;
}

TEST(PortTimeline, StopCursorBoundsTheScannedIntervals) {
  // Every stored interval before the stop index ends at or before the
  // answer; the one at it, if any, starts at least d - kTimeEps after it.
  Rng rng(171);
  for (const Time min_len : {1e-9, 1.5e-9, 1e-3, 1.0}) {
    for (int trial = 0; trial < 40; ++trial) {
      const PortTimeline t = random_timeline(rng, min_len, 1 + trial);
      const auto busy = t.intervals();
      const Time horizon = busy.empty() ? 1.0 : busy.back().second;
      for (int q = 0; q < 50; ++q) {
        const Time at = rng.uniform(0.0, 1.1 * horizon);
        const Time d = min_len * rng.uniform(1.0, 6.0);
        std::size_t k = 0;
        std::size_t scan_start = 0;
        const Time got = t.earliest_fit(at, d, k, scan_start);
        const std::string where = "min_len=" + std::to_string(min_len) + " trial " +
                                  std::to_string(trial) + " query " + std::to_string(q);
        ASSERT_LE(scan_start, k) << where;
        ASSERT_LE(k, busy.size()) << where;
        for (std::size_t i = 0; i < k; ++i) EXPECT_LE(busy[i].second, got) << where;
        for (std::size_t i = 0; i < scan_start; ++i) EXPECT_LE(busy[i].second, at) << where;
        if (scan_start < busy.size()) {
          EXPECT_GT(busy[scan_start].second, at) << where;
        }
        if (k < busy.size()) {
          EXPECT_GE(busy[k].first - got, d - kTimeEps) << where;
        }
      }
    }
  }
}

TEST(PortTimeline, QueryFromTheStopCursorMatchesOneFromZero) {
  // place_common's contract: a port's next query time is never below its
  // last answer.  From the stop cursor, such a query gives the answer and
  // both cursors of a query from 0.
  Rng rng(172);
  for (const Time min_len : {1e-9, 1e-3, 1.0}) {
    for (int trial = 0; trial < 40; ++trial) {
      const PortTimeline t = random_timeline(rng, min_len, 1 + trial);
      const Time horizon = t.size() == 0 ? 1.0 : t.intervals().back().second;
      std::size_t k = 0;
      std::size_t scan_start = 0;
      Time at = 0.0;
      for (int q = 0; q < 30; ++q) {
        const Time d = min_len * rng.uniform(1.0, 6.0);
        std::size_t k0 = 0;
        std::size_t scan_start0 = 0;
        const Time want = t.earliest_fit(at, d, k0, scan_start0);
        const std::string where = "min_len=" + std::to_string(min_len) + " trial " +
                                  std::to_string(trial) + " query " + std::to_string(q);
        EXPECT_EQ(t.earliest_fit(at, d, k, scan_start), want) << where;
        EXPECT_EQ(k, k0) << where;
        EXPECT_EQ(scan_start, scan_start0) << where;
        // The next query time: the answer itself, or a step past it.
        at = want + (rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.0, 0.2 * horizon));
      }
    }
  }
}

TEST(PortTimeline, PlaceCommonInsertsIntoBothPorts) {
  PortTimeline a;
  PortTimeline b;
  a.insert(0.0, 1.0);
  b.insert(1.5, 2.0);
  // Free on a from 1, on b before 1.5 and from 2: a 1-long flow needs 2.
  EXPECT_EQ(place_common(a, b, 1.0), 2.0);
  EXPECT_EQ(a.size(), 2u);  // [0, 1] and [2, 3]
  EXPECT_EQ(b.size(), 1u);  // [1.5, 3]
  EXPECT_EQ(fit(a, 0.0, 1.0), 1.0);
  EXPECT_EQ(fit(b, 0.0, 1.0), 0.0);
  EXPECT_EQ(fit(b, 1.0, 1.0), 3.0);
}

TEST(PacketSchedulerProperty, FeasibleAndExact) {
  Rng rng(142);
  for (int trial = 0; trial < 15; ++trial) {
    const auto coflows = testing::random_workload(rng, 8, 5, 0.01, 3.0);
    const SliceSchedule s = packet_schedule(coflows, bssi_order(coflows));
    EXPECT_TRUE(is_port_feasible(s)) << "trial " << trial;
    EXPECT_TRUE(satisfies_demands(s, coflows)) << "trial " << trial;
  }
}

TEST(PacketSchedulerProperty, MakespanAtLeastMaxBottleneck) {
  Rng rng(143);
  const auto coflows = testing::random_workload(rng, 6, 4, 0.01, 3.0);
  const SliceSchedule s = packet_schedule(coflows, sebf_order(coflows));
  double max_rho = 0.0;
  const int n = coflows.front().demand.n();
  for (int p = 0; p < n; ++p) {
    double in_load = 0.0;
    for (const Coflow& c : coflows) in_load += c.demand.row_sum(p);
    max_rho = std::max(max_rho, in_load);
  }
  EXPECT_GE(makespan(s) + 1e-9, max_rho);
}

}  // namespace
}  // namespace reco
