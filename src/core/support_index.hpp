// Sparse support index over a dense demand matrix.
//
// Every decomposition kernel in this repo (BvN peeling, Solstice slicing,
// stuffing, threshold matching) repeatedly asks the same questions of a
// mutating matrix: which entries of row i are nonzero?  what is nnz now?
// what are the row/column sums?  Answering them from the dense storage
// costs O(N) or O(N^2) per query, which dominates once the matrix is
// sparse — and the paper's Facebook-trace workload is overwhelmingly
// sparse (Table I: 86% of coflows in the sparse class).  SupportIndex
// keeps each row's sorted support plus incrementally maintained sums, so
// support queries are O(1)/O(degree) and the whole peeling loop becomes
// proportional to nnz instead of N^2.
//
// Layout: one column-index arena at a fixed stride of n.  Row i owns slots
// [i*n, i*n + n), so a support insert is a sorted insert in place: no row
// ever relocates.  Values are read from the dense matrix along the support
// (matrix().row_data(i)[j]); the index stores no copy of them.  The arena
// costs 4 B per cell beside the dense matrix's 8 B, allocated once per
// dimension, which also makes every index's capacity independent of the
// shape of the matrix it holds.  There is no column-side structure: the
// column sums callers need exactly come from one row-major pass
// (col_sums_exact).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/matrix.hpp"
#include "core/types.hpp"

namespace reco {

/// Owns a dense Matrix and maintains, under `set`/`add` mutation:
///   * row_support(i) — sorted columns of row i's nonzero entries; their
///     values are matrix().row_data(i)[j] for each j in it;
///   * row_sum / col_sum / nnz — O(1) aggregates.
///
/// Invariants:
///   * an entry is in the support iff it is exactly nonzero, and every
///     stored value is either exact 0.0 or at least kTimeEps in magnitude:
///     `set` snaps sub-tolerance values to zero (the same clamp_zero
///     convention the subtraction chains already follow), so the support
///     never accumulates stale tolerance-crumbs;
///   * each row's support is kept sorted ascending, so iterating it
///     visits the same nonzero entries in the same order as a
///     dense j = 0..N-1 scan — which is what makes the sparse kernels
///     bit-identical to their dense counterparts (see DESIGN.md §3);
///   * incremental row/col sums are updated by +=delta and therefore agree
///     with a from-scratch scan only up to float round-off; callers that
///     need scan-exact sums (stuffing's slack arithmetic, the orderings'
///     port loads) use `row_sum_exact` / `col_sums_exact`, ordered
///     re-scans of the support that match Matrix::row_sum / col_sum
///     bit-for-bit because exact zeros contribute exactly nothing to an
///     IEEE sum.
///
/// Concurrency: every const member only reads, so any number of threads
/// may read one index at once while no thread writes it.
class SupportIndex {
 public:
  SupportIndex() = default;

  /// Take ownership of `m` and build the index in one branch-free O(N^2)
  /// scan plus O(nnz) for the sums.  Sub-tolerance entries of `m` are
  /// snapped to exact zero.
  explicit SupportIndex(Matrix m);

  /// Rebuild this index over a copy of `m` in place, reusing every buffer's
  /// capacity (arena, lengths, sums, the dense storage), so at an unchanged
  /// dimension it allocates nothing.  Same snapping semantics as the ingest
  /// constructor.  This is the slot-recycling entry point of the online
  /// scheduler: a daemon that re-seats thousands of coflows in the same
  /// residual slots must not re-allocate the index each time.
  void assign(const Matrix& m);

  /// Empty n x n index, arena allocated — the entry point for code that
  /// builds a sparse result entry by entry (the snapshot reader).
  static SupportIndex zeros(int n);

  int n() const { return m_.n(); }
  bool empty() const { return m_.empty(); }

  /// The underlying dense matrix (read-only; mutate via set/add).
  const Matrix& matrix() const { return m_; }

  /// Move the matrix out; the index is left empty.
  Matrix release();

  double at(int i, int j) const { return m_.at(i, j); }

  /// Write entry (i, j).  Sub-tolerance values are snapped to exact zero.
  /// O(1) when the entry stays inside the support (a dense write), O(degree)
  /// when it enters or leaves (sorted insert/erase in the row's arena
  /// slots).  Defined inline: this is the innermost write of every peeling
  /// round.
  void set(int i, int j, double v) {
    if (approx_zero(v)) v = 0.0;
    double& cell = m_.at(i, j);
    const double old = cell;
    if (v == old) return;
    row_sum_[i] += v - old;
    col_sum_[j] += v - old;
    cell = v;
    const bool now = v != 0.0;
    if ((old != 0.0) != now) update_support(i, j, now);
  }

  /// set(i, j, at(i, j) + dv).
  void add(int i, int j, double dv) { set(i, j, m_.at(i, j) + dv); }

  /// Replace every stored value v by f(v), visiting the support row by row
  /// in ascending column order, where it lies: the support stays as it is,
  /// and an entry leaves it only when f(v) rounds below kTimeEps
  /// (set()'s snap rule).  The row and column sums are then re-summed in
  /// row-major order, which is bit for bit what writing the same values
  /// into zeros(n) with set(), in that order, leaves.  O(nnz + N).
  template <class F>
  void transform_values(F&& f) {
    bool snapped = false;
    for (int i = 0; i < m_.n(); ++i) {
      double* row = m_.row_data(i);
      for (const int j : row_support(i)) {
        double v = f(row[j]);
        if (approx_zero(v)) {
          v = 0.0;
          snapped = true;
        }
        row[j] = v;
      }
    }
    if (snapped) drop_zeros();
    resum();
  }

  // ---- O(1) aggregates -------------------------------------------------
  int nnz() const { return nnz_; }
  /// Incrementally maintained sums (scan-exact at build, then drifts by
  /// accumulated round-off — fine for tolerance-scale decisions).
  Time row_sum(int i) const { return row_sum_[i]; }
  Time col_sum(int j) const { return col_sum_[j]; }

  // ---- O(N) / O(nnz) aggregates ---------------------------------------
  /// Largest entry, read from the dense rows along the support (O(nnz)).
  double max_entry() const;
  /// Sum of all entries, from the incremental row sums (O(N)).
  Time total() const;

  // ---- support structure ----------------------------------------------
  /// Columns j with m(i, j) != 0, ascending.  Exact — no stale entries.
  /// Invalidated by any mutation of the index (set/add/assign/release), like
  /// iterators into a vector — do not hold one across writes.
  std::span<const int> row_support(int i) const {
    return {row_cols_.data() + base(i), static_cast<std::size_t>(row_len_[i])};
  }

  /// Ordered O(degree) re-scan of row i over its support; bit-identical to
  /// Matrix::row_sum(i) because every skipped entry is exactly 0.0.
  Time row_sum_exact(int i) const;
  /// Write every column's exact sum to out[0..n): one row-major O(nnz + N)
  /// pass over the support and the dense values, so column j receives its
  /// addends in ascending row order — bit-identical to Matrix::col_sum(j).
  void col_sums_exact(Time* out) const;

  /// Total heap capacity currently held, in elements (dense storage plus
  /// the arena) — sampled by the online core's alloc-event accounting to
  /// prove recycled slots stop allocating at steady state.
  std::size_t capacity_footprint() const;

 private:
  /// First arena slot of row i.
  std::size_t base(int i) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(m_.n());
  }

  /// Slow path of set(): entry (i, j) entered (`now`) or left the support.
  void update_support(int i, int j, bool now);

  /// Rebuild the arena from the dense matrix (ingest / assign).
  void build_from_matrix();

  /// transform_values' slow path: drop the entries it zeroed from the
  /// rows, in place.
  void drop_zeros();

  /// Recompute the row and column sums along the support, in row-major
  /// order.
  void resum();

  Matrix m_;
  std::vector<int> row_cols_;  ///< the column arena at stride n
  std::vector<int> row_len_;   ///< live entries of each row
  std::vector<Time> row_sum_;
  std::vector<Time> col_sum_;
  int nnz_ = 0;
};

}  // namespace reco
