// The coalesced PortTimeline against the linear-scan oracle in
// packet_oracle.hpp, over two families of seeded random workloads.  The
// edge-case family (240 workloads) reaches the cases coalescing must get
// right: flows chained end to start exactly, flows the fit tolerance places
// less than kTimeEps into a neighbour, gaps shorter than kTimeEps, and flows
// of size kTimeEps, 1.5*kTimeEps and 2*kTimeEps.  The floor family (2000
// workloads) has a smallest flow far above kTimeEps, so the timelines fill
// every gap narrower than that floor less kTimeEps; its sizes sit at the
// floor, up to 2*kTimeEps above it, and within kTimeEps of multiples of
// half the floor, so gaps land on both sides of the fill threshold.  Every
// schedule must equal its oracle twin bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/support_index.hpp"
#include "property/packet_oracle.hpp"
#include "sched/packet_scheduler.hpp"
#include "sched/sunflow.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

constexpr int kWorkloads = 240;

/// A flow size: mostly on a 1/4 grid, so list scheduling chains flows end
/// to start exactly; many off the grid by less than kTimeEps, so the fit
/// tolerance places them overlapping a neighbour or leaves gaps shorter
/// than kTimeEps; some of size kTimeEps or 2*kTimeEps, and of 1.5*kTimeEps,
/// which fits only a gap shorter than kTimeEps; and some arbitrary.
Time edge_case_size(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.06) return kTimeEps;
  if (u < 0.12) return 2 * kTimeEps;
  if (u < 0.18) return 1.5 * kTimeEps;
  if (u < 0.26) return rng.uniform(0.1, 2.0);
  const Time grid = 0.25 * rng.uniform_int(1, 8);
  if (u < 0.6) return grid;
  return grid + kTimeEps * rng.uniform(-0.9, 0.9);
}

constexpr int kFloorWorkloads = 2000;

/// A flow size of the floor family, never below `floor`: the floor itself,
/// the floor plus up to 2*kTimeEps, or 3 to 12 half-floors off by less than
/// kTimeEps.  Gaps between such flows fall near multiples of half the
/// floor, so many are dead and many sit within a few kTimeEps of the
/// threshold floor - kTimeEps, on either side.
Time floor_case_size(Rng& rng, Time floor) {
  const double u = rng.uniform();
  if (u < 0.25) return floor;
  if (u < 0.45) return floor + 2 * kTimeEps * rng.uniform();
  return 0.5 * floor * rng.uniform_int(3, 12) + kTimeEps * rng.uniform(-0.9, 0.9);
}

struct Workload {
  std::vector<Coflow> coflows;
  std::vector<int> order;
  Time floor = 0.0;  // smallest flow (floor family only)
};

template <class Size>
Workload make_workload(Rng& rng, Size size) {
  const int n = rng.uniform_int(2, 7);
  const int k = rng.uniform_int(1, 10);
  Workload w;
  for (int c = 0; c < k; ++c) {
    Coflow& coflow = w.coflows.emplace_back();
    coflow.id = c;
    coflow.demand = Matrix(n);
    const double density = rng.uniform(0.2, 0.9);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (rng.uniform() < density) coflow.demand.at(i, j) = size();
      }
    }
  }
  w.order.resize(static_cast<std::size_t>(k));
  rng.sample_distinct(k, k, w.order.data());
  return w;
}

Workload make_workload(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed));
  return make_workload(rng, [&] { return edge_case_size(rng); });
}

/// A floor-family workload: the floor is 1/8, 1/4, or an arbitrary length
/// in [0.1, 0.5]; one flow of exactly the floor is planted so the floor is
/// the batch's smallest flow.
Workload make_floor_workload(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) + 1'000'000);
  const double u = rng.uniform();
  const Time floor = u < 0.4 ? 0.125 : u < 0.8 ? 0.25 : rng.uniform(0.1, 0.5);
  Workload w = make_workload(rng, [&] { return floor_case_size(rng, floor); });
  w.coflows.front().demand.at(0, 0) = floor;
  w.floor = floor;
  return w;
}

Time smallest_flow(const Matrix& demand) {
  Time smallest = std::numeric_limits<Time>::infinity();
  for (int i = 0; i < demand.n(); ++i) {
    for (int j = 0; j < demand.n(); ++j) {
      if (!approx_zero(demand.at(i, j))) smallest = std::min(smallest, demand.at(i, j));
    }
  }
  return smallest;
}

/// Gaps between a schedule's busy intervals, per port, against the fill
/// threshold floor - kTimeEps: the dead ones (narrower, so the timelines
/// fill them), and how many of each side lie within 4*kTimeEps of it.
struct FloorGaps {
  int dead = 0;
  int dead_near = 0;
  int live_near = 0;
};

/// Busy intervals are walked in start order and merged where they touch or
/// overlap, as the timelines merge them.
FloorGaps floor_gaps(const SliceSchedule& schedule, Time floor) {
  const Time threshold = floor - kTimeEps;
  FloorGaps gaps;
  for (const bool ingress : {true, false}) {
    std::vector<std::tuple<PortId, Time, Time>> busy;
    for (const FlowSlice& s : schedule) busy.emplace_back(ingress ? s.src : s.dst, s.start, s.end);
    std::sort(busy.begin(), busy.end());
    for (std::size_t k = 1, chain = 0; k < busy.size(); ++k) {
      if (std::get<0>(busy[k]) != std::get<0>(busy[chain])) {
        chain = k;
        continue;
      }
      const Time start = std::get<1>(busy[k]);
      Time& chain_end = std::get<2>(busy[chain]);
      if (start > chain_end) {
        const Time gap = start - chain_end;
        if (gap < threshold) {
          ++gaps.dead;
          gaps.dead_near += gap >= threshold - 4 * kTimeEps;
        } else {
          gaps.live_near += gap < threshold + 4 * kTimeEps;
        }
      }
      chain_end = std::max(chain_end, std::get<2>(busy[k]));
    }
  }
  return gaps;
}

bool same_bits(Time a, Time b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_identical(const SliceSchedule& got, const SliceSchedule& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t k = 0; k < got.size(); ++k) {
    const FlowSlice& a = got[k];
    const FlowSlice& b = want[k];
    ASSERT_TRUE(same_bits(a.start, b.start) && same_bits(a.end, b.end) && a.src == b.src &&
                a.dst == b.dst && a.coflow == b.coflow)
        << context << " slice " << k << ": got [" << a.start << ", " << a.end << ") " << a.src
        << "->" << a.dst << " coflow " << a.coflow << ", oracle [" << b.start << ", " << b.end
        << ") " << b.src << "->" << b.dst << " coflow " << b.coflow;
  }
}

/// Consecutive slices on one port that touch exactly or overlap by less
/// than kTimeEps (the two contacts coalescing merges), or that leave a gap
/// shorter than kTimeEps between them (which it must keep).
struct Contacts {
  int touches = 0;
  int tiny_overlaps = 0;
  int tiny_gaps = 0;
};

void count_contacts(const SliceSchedule& schedule, Contacts& contacts) {
  for (const bool ingress : {true, false}) {
    std::vector<std::tuple<PortId, Time, Time>> busy;
    for (const FlowSlice& s : schedule) busy.emplace_back(ingress ? s.src : s.dst, s.start, s.end);
    std::sort(busy.begin(), busy.end());
    for (std::size_t k = 1; k < busy.size(); ++k) {
      if (std::get<0>(busy[k]) != std::get<0>(busy[k - 1])) continue;
      const Time start = std::get<1>(busy[k]);
      const Time prev_end = std::get<2>(busy[k - 1]);
      if (start == prev_end) ++contacts.touches;
      if (start < prev_end && prev_end - start < kTimeEps) ++contacts.tiny_overlaps;
      if (start > prev_end && start - prev_end < kTimeEps) ++contacts.tiny_gaps;
    }
  }
}

TEST(TimelineEquivalence, DensePacketScheduleMatchesOracle) {
  Contacts contacts;
  int eps_flows = 0;
  int two_eps_flows = 0;
  for (int seed = 0; seed < kWorkloads; ++seed) {
    const Workload w = make_workload(seed);
    const SliceSchedule want = oracle::packet_schedule(w.coflows, w.order);
    expect_identical(packet_schedule(w.coflows, w.order), want, "workload " + std::to_string(seed));
    count_contacts(want, contacts);
    for (const Coflow& c : w.coflows) {
      for (int i = 0; i < c.demand.n(); ++i) {
        for (int j = 0; j < c.demand.n(); ++j) {
          eps_flows += c.demand.at(i, j) == kTimeEps;
          two_eps_flows += c.demand.at(i, j) == 2 * kTimeEps;
        }
      }
    }
  }
  // The sweep reaches every case the merged intervals must answer exactly.
  EXPECT_GT(contacts.touches, 0);
  EXPECT_GT(contacts.tiny_overlaps, 0);
  EXPECT_GT(contacts.tiny_gaps, 0);
  EXPECT_GT(eps_flows, 0);
  EXPECT_GT(two_eps_flows, 0);
}

TEST(TimelineEquivalence, ResidualOverloadMatchesOracle) {
  PacketScratch scratch;  // reused across workloads, as the online core does
  SliceSchedule got;
  for (int seed = 0; seed < kWorkloads; ++seed) {
    const Workload w = make_workload(seed);
    std::vector<SupportIndex> index;
    index.reserve(w.coflows.size());
    for (const Coflow& c : w.coflows) index.emplace_back(c.demand);
    std::vector<const SupportIndex*> residuals;
    std::vector<CoflowId> ids;
    for (std::size_t k = 0; k < index.size(); ++k) {
      residuals.push_back(&index[k]);
      ids.push_back(static_cast<CoflowId>(100 + k));
    }
    packet_schedule_into(residuals, ids, w.order, scratch, got);
    expect_identical(got, oracle::packet_schedule(residuals, ids, w.order),
                     "workload " + std::to_string(seed));
  }
}

TEST(TimelineEquivalence, SunflowMatchesOracle) {
  for (int seed = 0; seed < kWorkloads; ++seed) {
    const Workload w = make_workload(seed);
    for (std::size_t k = 0; k < w.coflows.size(); ++k) {
      const Matrix& demand = w.coflows[k].demand;
      for (const Time delta : {0.0, 0.25}) {
        const std::string context = "workload " + std::to_string(seed) + " coflow " +
                                    std::to_string(k) + " delta " + std::to_string(delta);
        const SunflowResult got = sunflow(demand, delta);
        const SunflowResult want = oracle::sunflow(demand, delta);
        expect_identical(got.schedule, want.schedule, context);
        EXPECT_TRUE(same_bits(got.cct, want.cct)) << context;
        EXPECT_EQ(got.reconfigurations, want.reconfigurations) << context;
      }
    }
  }
}

TEST(TimelineEquivalence, FloorFamilyDenseAndResidualMatchOracle) {
  PacketScratch scratch;
  SliceSchedule got;
  int filling = 0;
  FloorGaps near;
  for (int seed = 0; seed < kFloorWorkloads; ++seed) {
    const Workload w = make_floor_workload(seed);
    const std::string context = "floor workload " + std::to_string(seed);
    const SliceSchedule want = oracle::packet_schedule(w.coflows, w.order);
    expect_identical(packet_schedule(w.coflows, w.order), want, context);

    std::vector<SupportIndex> index;
    index.reserve(w.coflows.size());
    for (const Coflow& c : w.coflows) index.emplace_back(c.demand);
    std::vector<const SupportIndex*> residuals;
    std::vector<CoflowId> ids;
    for (std::size_t k = 0; k < index.size(); ++k) {
      residuals.push_back(&index[k]);
      ids.push_back(w.coflows[k].id);
    }
    packet_schedule_into(residuals, ids, w.order, scratch, got);
    expect_identical(got, want, context + " (residual)");
    const FloorGaps gaps = floor_gaps(want, w.floor);
    filling += gaps.dead > 0;
    near.dead_near += gaps.dead_near;
    near.live_near += gaps.live_near;
  }
  // Most workloads leave a gap narrower than the floor less kTimeEps, so
  // the sweep exercises filling, not just the floor's bookkeeping; and
  // gaps fall within a few kTimeEps of the threshold on both sides.
  EXPECT_GT(filling, kFloorWorkloads * 3 / 4);
  EXPECT_GT(near.dead_near, 0);
  EXPECT_GT(near.live_near, 0);
}

TEST(TimelineEquivalence, FloorFamilySunflowMatchesOracle) {
  int filling = 0;
  for (int seed = 0; seed < kFloorWorkloads; ++seed) {
    const Workload w = make_floor_workload(seed);
    for (std::size_t k = 0; k < w.coflows.size(); ++k) {
      const Matrix& demand = w.coflows[k].demand;
      for (const Time delta : {0.0, 0.25}) {
        const std::string context = "floor workload " + std::to_string(seed) + " coflow " +
                                    std::to_string(k) + " delta " + std::to_string(delta);
        const SunflowResult got = sunflow(demand, delta);
        const SunflowResult want = oracle::sunflow(demand, delta);
        expect_identical(got.schedule, want.schedule, context);
        EXPECT_TRUE(same_bits(got.cct, want.cct)) << context;
        // With no setup delay the slices are the busy intervals.
        if (delta == 0.0) filling += floor_gaps(want.schedule, smallest_flow(demand)).dead > 0;
      }
    }
  }
  EXPECT_GT(filling, 0);
}

}  // namespace
}  // namespace reco
