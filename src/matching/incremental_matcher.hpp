// Incrementally maintained bipartite matching over the support of a demand
// matrix at a given threshold.
//
// BvN-style peeling runs up to nnz(D) matching rounds on one matrix, but
// between rounds only the few entries that hit zero leave the support.
// Recomputing a matching from scratch each round would cost O(E sqrt(V))
// per round; this class instead repairs the previous matching with one
// Kuhn augmentation per broken edge.  The edges present at the current
// threshold live in a row-major adjacency bitset, so each DFS step is a
// word-parallel scan of `adj[u] & ~visited` — O(N/64) words at every
// threshold, with no per-entry value probe — while set_threshold rebuilds
// the bitset from the SupportIndex in O(nnz + N^2/64).
#pragma once

#include <cstdint>
#include <vector>

#include "core/support_index.hpp"

namespace reco {

/// Maintains a maximum matching on the graph
///   { (i, j) in support : index.at(i, j) >= threshold - kTimeEps }
/// where the index is owned by the caller and mutated between calls.
/// The caller reports value changes via `on_entry_changed` / threshold
/// changes via `set_threshold`, then calls `rematch()` to restore
/// maximality.
///
/// Assumes a nonnegative matrix (demand semantics).  Then the index's
/// support invariant (every stored nonzero is >= kTimeEps) means that at
/// thresholds <= 2*kTimeEps the edge set is exactly the support.
///
/// Augmentation is Kuhn's DFS with columns tried in ascending order,
/// skipping visited columns and absent edges — the visit order of a dense
/// j = 0..n-1 probe, so the matchings found are the dense matcher's.
class IncrementalMatcher {
 public:
  /// Binds to `index` (must outlive the matcher) with an initial threshold.
  IncrementalMatcher(const SupportIndex& index, double threshold);

  double threshold() const { return threshold_; }

  /// Moves the edge bitset to `threshold`.  Lowering the threshold only
  /// adds edges: the new ones are ORed in, the current matching stays valid
  /// and rematch() can only grow it.  Raising it drops edges: the bitset is
  /// rebuilt, and any matched pair now below threshold is unmatched first.
  /// O(nnz + N^2/64) either way.
  void set_threshold(double threshold);

  /// Notify that entry (i, j) changed value: its edge bit is recomputed,
  /// and if (i, j) was matched and is no longer an edge it is unmatched.
  ///
  /// Contract: report every value change of an index entry, except one that
  /// leaves the entry nonzero while the threshold is <= 2*kTimeEps (it
  /// cannot flip the edge).  Only this call and set_threshold re-probe
  /// values, so an unreported change leaves a stale edge (or a missing
  /// one) that rematch() will act on.
  /// Inline: called for every matched entry of every peeling round.
  void on_entry_changed(int i, int j) {
    std::uint64_t& word = adj_bits_[static_cast<std::size_t>(i) * words_ + (j >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (j & 63);
    if (edge_present(i, j)) {
      word |= bit;
      return;
    }
    word &= ~bit;
    if (match_left_[i] == j) {
      match_left_[i] = -1;
      match_right_[j] = -1;
      --size_;
    }
  }

  /// Restore maximality via augmenting paths from free rows.
  /// Returns the matching size.
  int rematch();

  int size() const { return size_; }
  bool is_perfect() const { return size_ == n_; }

  /// Matched column of row i, or -1.
  int matched_col(int i) const { return match_left_[i]; }

 private:
  bool edge_present(int i, int j) const {
    const double v = index_->at(i, j);
    return v != 0.0 && v >= threshold_ - kTimeEps;
  }
  /// Sets the bit of every support entry that is an edge at threshold_
  /// (never clears one).
  void set_edge_bits();
  /// Kuhn augmentation from free `row`; returns the number of edges on the
  /// augmenting path it applied, or 0 when none exists.
  int try_augment(int row);

  const SupportIndex* index_;
  double threshold_;
  int n_;
  int words_;  // 64-bit words per bitset row: ceil(n / 64)
  std::vector<int> match_left_;
  std::vector<int> match_right_;
  std::vector<std::uint64_t> adj_bits_;      // edge bitset: n_ rows x words_
  std::vector<std::uint64_t> visited_bits_;  // columns the current augmentation visited
  // Explicit DFS frames (row, parked column), so repair paths of any depth
  // run in constant C++ stack space.
  std::vector<int> stack_u_;
  std::vector<int> stack_e_;
  int size_ = 0;
};

}  // namespace reco
