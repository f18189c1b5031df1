#include "ocs/slice_executor.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace reco {

namespace {
/// Number of batch times strictly below t (with tolerance): the partition
/// point of `batch < t - eps` over the ascending batches.  Branch-free: each
/// halving step selects with a conditional move, since the comparisons are
/// too irregular to predict.
std::size_t count_below(const std::vector<Time>& batches, Time t) {
  if (batches.empty()) return 0;
  const Time bound = t - kTimeEps;
  const Time* first = batches.data();
  std::size_t len = batches.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    first = first[half] < bound ? first + half : first;
    len -= half;
  }
  return static_cast<std::size_t>(first - batches.data()) + (*first < bound ? 1 : 0);
}
}  // namespace

SliceSchedule inflate_pseudo_time(const SliceSchedule& pseudo, Time delta) {
  std::vector<std::size_t> order;
  std::vector<StartKey> keys;
  std::vector<StartKey> temp;
  order_by_start(pseudo, order, keys, temp);
  std::vector<Time> batches;
  SliceSchedule real;
  inflate_in_start_order(pseudo, order, delta, batches, real);
  return real;
}

int inflate_in_start_order(const SliceSchedule& pseudo, const std::vector<std::size_t>& order,
                           Time delta, std::vector<Time>& batches, SliceSchedule& real_out) {
  if (order.size() != pseudo.size()) {
    throw std::invalid_argument("inflate_in_start_order: order must list every slice once");
  }
  // Start batches: start_batches' chain dedup against the last kept batch,
  // run along the order instead of over a sorted copy of the starts.
  batches.clear();
  for (const std::size_t f : order) {
    if (f >= pseudo.size()) {
      throw std::invalid_argument("inflate_in_start_order: order entry out of range");
    }
    const Time t = pseudo[f].start;
    if (batches.empty() || !approx_eq(batches.back(), t)) batches.push_back(t);
  }
  // Batches <= start + eps: starts ascend along the order, so this count is
  // a forward cursor.  Batches < end - eps: ends do not ascend, so that one
  // is a binary search over the same list.  Every batch counted at the
  // start counts at the end too: a slice of at most 2 eps would otherwise
  // miss its own batch there and end before it starts.
  real_out.resize(pseudo.size());
  std::size_t at_or_below = 0;
  int real_batches = 0;
  Time last_real_batch = 0.0;
  for (const std::size_t f : order) {
    const FlowSlice& s = pseudo[f];
    while (at_or_below < batches.size() && batches[at_or_below] <= s.start + kTimeEps) {
      ++at_or_below;
    }
    const Time start = s.start + delta * static_cast<Time>(at_or_below);
    const Time end =
        s.end + delta * static_cast<Time>(std::max(at_or_below, count_below(batches, s.end)));
    real_out[f] = {start, end, s.src, s.dst, s.coflow};
    if (real_batches == 0 || !approx_eq(last_real_batch, start)) {
      ++real_batches;
      last_real_batch = start;
    }
  }
  return real_batches;
}

int count_reconfigurations(const SliceSchedule& schedule) {
  return static_cast<int>(start_batches(schedule).size());
}

SliceSchedule realize_not_all_stop(const SliceSchedule& pseudo, Time delta) {
  std::vector<std::size_t> order;
  std::vector<StartKey> keys;
  std::vector<StartKey> temp;
  order_by_start(pseudo, order, keys, temp);

  PortId max_port = -1;
  for (const FlowSlice& s : pseudo) max_port = std::max({max_port, s.src, s.dst});
  std::vector<Time> free_in(static_cast<std::size_t>(max_port + 1), 0.0);
  std::vector<Time> free_out(static_cast<std::size_t>(max_port + 1), 0.0);
  SliceSchedule real(pseudo.size());
  for (std::size_t f : order) {
    const FlowSlice& s = pseudo[f];
    const Time start = std::max({s.start, free_in[s.src], free_out[s.dst]}) + delta;
    const Time end = start + s.duration();
    real[f] = {start, end, s.src, s.dst, s.coflow};
    free_in[s.src] = end;
    free_out[s.dst] = end;
  }
  return real;
}

}  // namespace reco
