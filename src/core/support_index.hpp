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
// Layout: one row arena at a fixed stride of n.  Row i owns slots
// [i*n, i*n + n) of a column-index array and of a parallel value mirror,
// so an O(degree) iteration streams two flat arrays (indices and values
// side by side) instead of striding the N-wide dense row per value, and a
// support insert is a sorted insert in place: no row ever relocates.  The
// arena costs 12 B per cell beside the dense matrix's 8 B, allocated once
// per dimension, which also makes every index's capacity independent of
// the shape of the matrix it holds.  There is no column-side structure: the
// column sums callers need exactly come from one row-major pass
// (col_sums_exact).
#pragma once

#include <cstddef>
#include <vector>

#include "core/matrix.hpp"
#include "core/types.hpp"

namespace reco {

/// Lightweight view of one row's support indices inside the arena.
/// Invalidated by any mutation of the index (set/add/assign/release), like
/// iterators into a vector — do not hold one across writes.
class SupportSpan {
 public:
  SupportSpan() = default;
  SupportSpan(const int* data, int size) : data_(data), size_(size) {}
  const int* begin() const { return data_; }
  const int* end() const { return data_ + size_; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int operator[](int k) const { return data_[k]; }
  int front() const { return data_[0]; }
  int back() const { return data_[size_ - 1]; }

 private:
  const int* data_ = nullptr;
  int size_ = 0;
};

/// View of the values parallel to a row's SupportSpan: element k is the
/// matrix entry at column row_support(i)[k].  Same invalidation rule.
class ValueSpan {
 public:
  ValueSpan() = default;
  ValueSpan(const double* data, int size) : data_(data), size_(size) {}
  const double* begin() const { return data_; }
  const double* end() const { return data_ + size_; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double operator[](int k) const { return data_[k]; }

 private:
  const double* data_ = nullptr;
  int size_ = 0;
};

/// Owns a dense Matrix and maintains, under `set`/`add` mutation:
///   * row_support(i) — sorted columns of row i's nonzero entries;
///   * row_values(i) — values parallel to row_support(i), streamed from
///     the value arena (no dense-row gather);
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
///   * row_values(i)[k] equals at(i, row_support(i)[k]) exactly — the
///     value arena is a lazily refreshed mirror: in-place writes mark the
///     row dirty and the next row_values(i) re-gathers it from the dense
///     row, so read results are always exact;
///   * incremental row/col sums are updated by +=delta and therefore agree
///     with a from-scratch scan only up to float round-off; callers that
///     need scan-exact sums (stuffing's slack arithmetic, the orderings'
///     port loads) use `row_sum_exact` / `col_sums_exact`, ordered
///     re-scans of the support that match Matrix::row_sum / col_sum
///     bit-for-bit because exact zeros contribute exactly nothing to an
///     IEEE sum.
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
  /// O(1) when the entry stays inside the support (dense write + a dirty
  /// mark; the value mirror refreshes lazily on the next row_values read),
  /// O(degree) when it enters or leaves (sorted insert/erase in the row's
  /// arena slots).  Defined inline: this is the innermost write of every
  /// peeling round.
  void set(int i, int j, double v) {
    if (approx_zero(v)) v = 0.0;
    double& cell = m_.at(i, j);
    const double old = cell;
    if (v == old) return;
    row_sum_[i] += v - old;
    col_sum_[j] += v - old;
    cell = v;
    const bool was = old != 0.0;
    const bool now = v != 0.0;
    if (was != now) {
      update_support(i, j, now);
    } else if (now) {
      row_dirty_[i] = 1;
    }
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
      const int* cols = row_cols_.data() + base(i);
      double* vals = row_vals_.data() + base(i);
      for (int k = 0; k < row_len_[i]; ++k) {
        double v = f(row[cols[k]]);
        if (approx_zero(v)) {
          v = 0.0;
          snapped = true;
        }
        row[cols[k]] = v;
        vals[k] = v;
      }
      row_dirty_[i] = 0;
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
  /// Largest entry, by streaming the value arena (O(nnz), no dense reads).
  double max_entry() const;
  /// Sum of all entries, from the incremental row sums (O(N)).
  Time total() const;

  // ---- support structure ----------------------------------------------
  /// Columns j with m(i, j) != 0, ascending.  Exact — no stale entries.
  SupportSpan row_support(int i) const { return {row_cols_.data() + base(i), row_len_[i]}; }
  /// Values parallel to row_support(i): element k is at(i, support[k]).
  ValueSpan row_values(int i) const {
    double* dst = row_vals_.data() + base(i);
    if (row_dirty_[i]) {
      // Mirror re-gather from the dense row — the hottest gather in the
      // peel loop.
      const double* src = m_.row_data(i);
      const int* cols = row_cols_.data() + base(i);
      for (int k = 0; k < row_len_[i]; ++k) dst[k] = src[cols[k]];
      row_dirty_[i] = 0;
    }
    return {dst, row_len_[i]};
  }

  /// Ordered O(degree) re-scan of row i over its support; bit-identical to
  /// Matrix::row_sum(i) because every skipped entry is exactly 0.0.
  Time row_sum_exact(int i) const;
  /// Write every column's exact sum to out[0..n): one row-major O(nnz + N)
  /// pass over the support and the dense values, so column j receives its
  /// addends in ascending row order — bit-identical to Matrix::col_sum(j).
  /// Reads the dense values and leaves the value mirror alone, so it is
  /// safe under concurrent const readers (the ordering's parallel_for).
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

  /// Recompute the row and column sums from the row arena, in row-major
  /// order.
  void resum();

  Matrix m_;
  // The row arena at stride n: columns and values in lockstep.
  std::vector<int> row_cols_;
  mutable std::vector<double> row_vals_;
  std::vector<int> row_len_;  ///< live entries of each row
  /// Per-row staleness of the value mirror.  An in-place set() only writes
  /// the dense cell and this byte; row_values() gathers the row from dense
  /// storage on its next read and clears the mark.  Writes therefore cost
  /// what they did pre-SoA, and a burst of writes (a peel's subtraction
  /// chain) pays one gather per row instead of one search per write.
  /// Structural insert/erase keep the mirror aligned, so clean rows stay
  /// clean.  mutable: refresh happens under const readers — concurrent
  /// row_values() calls on the SAME index race; every current caller
  /// reads one index from one thread (see ordering.cpp's parallel loops,
  /// which are per-coflow).
  mutable std::vector<unsigned char> row_dirty_;
  std::vector<Time> row_sum_;
  std::vector<Time> col_sum_;
  int nnz_ = 0;
};

}  // namespace reco
