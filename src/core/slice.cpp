#include "core/slice.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <tuple>
#include <utility>

namespace reco {

namespace {

/// The bits of t + 0.0, which folds -0.0 into +0.0, mapped so that unsigned
/// order equals double order: a non-negative value gets its sign bit set,
/// a negative one has every bit inverted.
std::uint64_t start_key(Time t) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const auto bits = std::bit_cast<std::uint64_t>(t + 0.0);
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

}  // namespace

bool is_port_feasible(const SliceSchedule& schedule) {
  // Sweep each port's slices sorted by start; neighbours must not overlap.
  // Two passes (ingress then egress) with a shared helper.
  const auto check_axis = [&](bool ingress) {
    std::map<PortId, std::vector<const FlowSlice*>> by_port;
    for (const FlowSlice& s : schedule) {
      if (s.end < s.start - kTimeEps) return false;
      by_port[ingress ? s.src : s.dst].push_back(&s);
    }
    for (auto& [port, slices] : by_port) {
      std::sort(slices.begin(), slices.end(),
                [](const FlowSlice* a, const FlowSlice* b) { return a->start < b->start; });
      for (std::size_t k = 1; k < slices.size(); ++k) {
        if (slices[k]->start < slices[k - 1]->end - kTimeEps) return false;
      }
    }
    return true;
  };
  return check_axis(true) && check_axis(false);
}

bool satisfies_demands(const SliceSchedule& schedule, const std::vector<Coflow>& coflows) {
  std::map<std::tuple<CoflowId, PortId, PortId>, Time> served;
  for (const FlowSlice& s : schedule) {
    served[{s.coflow, s.src, s.dst}] += s.duration();
  }
  // Per-flow tolerance: a flow may be served by many slices.
  const double eps = kTimeEps * std::max<std::size_t>(1, schedule.size());
  for (const Coflow& c : coflows) {
    for (int i = 0; i < c.demand.n(); ++i) {
      for (int j = 0; j < c.demand.n(); ++j) {
        const double want = c.demand.at(i, j);
        const auto it = served.find({c.id, i, j});
        const double got = it == served.end() ? 0.0 : it->second;
        if (std::abs(got - want) > eps) return false;
      }
    }
  }
  // Also reject slices for flows with no demand.
  for (const auto& [key, got] : served) {
    const auto [k, i, j] = key;
    bool found = false;
    for (const Coflow& c : coflows) {
      if (c.id == k) {
        found = true;
        if (approx_zero(c.demand.at(i, j)) && !approx_zero(got)) return false;
      }
    }
    if (!found && !approx_zero(got)) return false;
  }
  return true;
}

std::vector<Time> completion_times(const SliceSchedule& schedule, int num_coflows) {
  std::vector<Time> cct(num_coflows, 0.0);
  for (const FlowSlice& s : schedule) {
    if (s.coflow >= 0 && s.coflow < num_coflows) {
      cct[s.coflow] = std::max(cct[s.coflow], s.end);
    }
  }
  return cct;
}

Time total_weighted_cct(const std::vector<Time>& cct, const std::vector<Coflow>& coflows) {
  Time sum = 0.0;
  for (const Coflow& c : coflows) {
    if (c.id >= 0 && c.id < static_cast<CoflowId>(cct.size())) {
      sum += c.weight * (cct[c.id] - c.arrival);
    }
  }
  return sum;
}

std::vector<Time> start_batches(const SliceSchedule& schedule) {
  std::vector<Time> batches;
  batches.reserve(schedule.size());
  for (const FlowSlice& s : schedule) batches.push_back(s.start);
  std::sort(batches.begin(), batches.end());
  // Chain dedup: compare each start against the last *kept* batch time.
  std::size_t kept = 0;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    if (kept == 0 || !approx_eq(batches[kept - 1], batches[k])) batches[kept++] = batches[k];
  }
  batches.resize(kept);
  return batches;
}

Time makespan(const SliceSchedule& schedule) {
  Time m = 0.0;
  for (const FlowSlice& s : schedule) m = std::max(m, s.end);
  return m;
}

void order_by_start(const SliceSchedule& slices, std::vector<std::size_t>& order,
                    std::vector<StartKey>& keys, std::vector<StartKey>& temp) {
  const std::size_t n = slices.size();
  keys.resize(n);
  temp.resize(n);
  order.resize(n);
  std::uint64_t any_bits = 0;
  std::uint64_t all_bits = ~std::uint64_t{0};
  for (std::size_t f = 0; f < n; ++f) {
    const std::uint64_t key = start_key(slices[f].start);
    keys[f] = {key, f};
    any_bits |= key;
    all_bits &= key;
  }
  // Each pass is a stable counting sort on one digit, and the keys start in
  // index order, so equal keys stay in index order throughout.
  std::array<std::array<std::size_t, 256>, 8> offset{};
  for (const StartKey& k : keys) {
    for (int d = 0; d < 8; ++d) ++offset[d][(k.key >> (8 * d)) & 0xff];
  }
  StartKey* from = keys.data();
  StartKey* to = temp.data();
  const std::uint64_t varying = any_bits ^ all_bits;
  for (int d = 0; d < 8; ++d) {
    const int shift = 8 * d;
    if (((varying >> shift) & 0xff) == 0) continue;  // every key shares this digit
    std::size_t sum = 0;
    for (std::size_t& c : offset[d]) sum += std::exchange(c, sum);
    for (std::size_t f = 0; f < n; ++f) to[offset[d][(from[f].key >> shift) & 0xff]++] = from[f];
    std::swap(from, to);
  }
  for (std::size_t f = 0; f < n; ++f) order[f] = from[f].index;
}

}  // namespace reco
