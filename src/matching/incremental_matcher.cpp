#include "matching/incremental_matcher.hpp"

#include <algorithm>
#include <bit>

#include "obs/obs.hpp"

namespace reco {

IncrementalMatcher::IncrementalMatcher(const SupportIndex& index, double threshold)
    : index_(&index),
      threshold_(threshold),
      n_(index.n()),
      words_((index.n() + 63) / 64),
      match_left_(index.n(), -1),
      match_right_(index.n(), -1),
      adj_bits_(static_cast<std::size_t>(n_) * words_, 0),
      visited_bits_(static_cast<std::size_t>(words_), 0),
      stack_u_(static_cast<std::size_t>(index.n()) + 1, 0),
      stack_e_(static_cast<std::size_t>(index.n()) + 1, 0) {
  set_edge_bits();
}

void IncrementalMatcher::set_threshold(double threshold) {
  // A lowered threshold only adds edges, and every earlier value change was
  // reported, so the current bits stay and every matched pair keeps its
  // edge: no clear, no unmatch scan.
  const bool lowered = threshold < threshold_;
  threshold_ = threshold;
  if (!lowered) std::fill(adj_bits_.begin(), adj_bits_.end(), 0);
  set_edge_bits();
  if (lowered) return;
  // Only a raised threshold can leave a matched pair without its edge.
  for (int i = 0; i < n_; ++i) {
    const int j = match_left_[i];
    const std::uint64_t* row = adj_bits_.data() + static_cast<std::size_t>(i) * words_;
    if (j != -1 && !((row[j >> 6] >> (j & 63)) & 1)) {
      match_left_[i] = -1;
      match_right_[j] = -1;
      --size_;
    }
  }
}

void IncrementalMatcher::set_edge_bits() {
  // edge_present() along each row's support, reading the dense row, without
  // a branch per entry: every support value is nonzero, so the threshold
  // test alone decides the bit.  Columns ascend, so each word is gathered in
  // a register and stored once.
  const double floor = threshold_ - kTimeEps;
  for (int i = 0; i < n_; ++i) {
    std::uint64_t* row = adj_bits_.data() + static_cast<std::size_t>(i) * words_;
    const double* vals = index_->matrix().row_data(i);
    int w = 0;
    std::uint64_t bits = 0;
    for (const int j : index_->row_support(i)) {
      if ((j >> 6) != w) {
        row[w] |= bits;
        w = j >> 6;
        bits = 0;
      }
      bits |= std::uint64_t{vals[j] >= floor} << (j & 63);
    }
    row[w] |= bits;
  }
}

int IncrementalMatcher::try_augment(int row) {
  // Iterative Kuhn DFS: each frame is (row, column it is parked on).  A
  // frame's next candidate is the first set bit of adj[u] & ~visited at or
  // after its cursor — the same column a dense ascending probe restricted
  // to present, unvisited edges would reach.  The parked column is itself
  // visited, so resuming from it after a dead end moves past it.  A row
  // enters the stack at most once per augmentation (it arrives as the match
  // of a freshly visited column), so stacks of size n_ + 1 always suffice.
  std::uint64_t* visited = visited_bits_.data();
  std::fill_n(visited, words_, 0);
  int* su = stack_u_.data();
  int* se = stack_e_.data();
  su[0] = row;
  se[0] = 0;
  int sp = 1;
  while (sp > 0) {
    const std::uint64_t* adj = adj_bits_.data() + static_cast<std::size_t>(su[sp - 1]) * words_;
    int w = se[sp - 1] >> 6;
    std::uint64_t bits = adj[w] & ~visited[w] & (~std::uint64_t{0} << (se[sp - 1] & 63));
    while (bits == 0 && ++w < words_) bits = adj[w] & ~visited[w];
    if (bits == 0) {
      --sp;  // dead end
      continue;
    }
    const int j = (w << 6) | std::countr_zero(bits);
    visited[w] |= std::uint64_t{1} << (j & 63);
    se[sp - 1] = j;
    const int other = match_right_[j];
    if (other == -1) {
      // Success: rewire each frame to the column it is parked on.
      for (int k = 0; k < sp; ++k) {
        match_left_[su[k]] = se[k];
        match_right_[se[k]] = su[k];
      }
      return sp;
    }
    su[sp] = other;
    se[sp] = 0;
    ++sp;
  }
  return 0;
}

int IncrementalMatcher::rematch() {
  const bool obs_on = obs::enabled();
  for (int i = 0; i < n_; ++i) {
    if (match_left_[i] != -1) continue;
    const int path_edges = try_augment(i);
    if (path_edges == 0) continue;
    ++size_;
    if (obs_on) {
      static obs::Histogram& path_len =
          obs::metrics().histogram("matching.aug_path_edges", obs::pow2_buckets(256.0));
      path_len.observe(static_cast<double>(path_edges));
    }
  }
  return size_;
}

}  // namespace reco
