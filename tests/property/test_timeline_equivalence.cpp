// The coalesced PortTimeline against the linear-scan oracle in
// packet_oracle.hpp, over 240 seeded random workloads built to reach the
// cases coalescing must get right: flows chained end to start exactly,
// flows the fit tolerance places less than kTimeEps into a neighbour, gaps
// shorter than kTimeEps, and flows of size kTimeEps, 1.5*kTimeEps and
// 2*kTimeEps.  Every schedule must equal its oracle twin bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
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

struct Workload {
  std::vector<Coflow> coflows;
  std::vector<int> order;
};

Workload make_workload(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed));
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
        if (rng.uniform() < density) coflow.demand.at(i, j) = edge_case_size(rng);
      }
    }
  }
  w.order.resize(static_cast<std::size_t>(k));
  rng.sample_distinct(k, k, w.order.data());
  return w;
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

TEST(TimelineEquivalence, SunflowBothOrdersMatchOracle) {
  for (int seed = 0; seed < kWorkloads; ++seed) {
    const Workload w = make_workload(seed);
    for (std::size_t k = 0; k < w.coflows.size(); ++k) {
      const Matrix& demand = w.coflows[k].demand;
      for (const Time delta : {0.0, 0.25}) {
        for (const SunflowOrder order : {SunflowOrder::kLongestFirst, SunflowOrder::kShortestFirst}) {
          const std::string context = "workload " + std::to_string(seed) + " coflow " +
                                      std::to_string(k) + " delta " + std::to_string(delta) +
                                      (order == SunflowOrder::kLongestFirst ? " LPT" : " SPT");
          const SunflowResult got = sunflow(demand, delta, order);
          const SunflowResult want = oracle::sunflow(demand, delta, order);
          expect_identical(got.schedule, want.schedule, context);
          EXPECT_TRUE(same_bits(got.cct, want.cct)) << context;
          EXPECT_EQ(got.reconfigurations, want.reconfigurations) << context;
        }
      }
    }
  }
}

}  // namespace
}  // namespace reco
