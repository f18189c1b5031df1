// Dense square demand matrix: the N x N traffic matrix D of a coflow.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace reco {

/// Dense N x N matrix of non-negative demands (entry d_ij = data volume,
/// equivalently transmission time, from ingress i to egress j).
///
/// Kept deliberately small: only the operations the scheduling algorithms
/// need (row/column sums, nonzero structure, the paper's rho and tau).
class Matrix {
 public:
  Matrix() = default;

  /// Zero matrix of size n x n.
  explicit Matrix(int n) : n_(n), v_(static_cast<std::size_t>(n) * n, 0.0) {}

  /// Reset to the n x n zero matrix, reusing existing storage capacity
  /// (allocation-free once the buffer has grown to n*n).
  void zero(int n) {
    n_ = n;
    v_.assign(static_cast<std::size_t>(n) * n, 0.0);
  }

  /// Build from row-major initializer (size must be a perfect square).
  static Matrix from_rows(std::initializer_list<std::initializer_list<double>> rows);

  int n() const { return n_; }
  bool empty() const { return n_ == 0; }

  double& at(int i, int j) { return v_[idx(i, j)]; }
  double at(int i, int j) const { return v_[idx(i, j)]; }

  /// Contiguous dense row i (n doubles) — where SupportIndex's readers take
  /// the values along row_support(i).
  const double* row_data(int i) const { return v_.data() + idx(i, 0); }
  double* row_data(int i) { return v_.data() + idx(i, 0); }

  /// Number of entries strictly above the simulation tolerance.
  int nnz() const;

  /// nnz / n^2 — the paper's density measure DS (Sec. V-A).
  double density() const;

  /// Sum of row i.
  Time row_sum(int i) const;
  /// Sum of column j.
  Time col_sum(int j) const;
  /// Sum of all entries (aggregate demand volume).
  Time total() const;
  /// Largest entry.
  double max_entry() const;
  /// Smallest nonzero entry (0 if the matrix is all-zero).
  double min_nonzero() const;

  /// rho(D): max over all rows and columns of their sum — the transmission
  /// lower bound of Theorem 2 / the "effective bottleneck" of SEBF.
  Time rho() const;

  /// tau(D): max number of nonzero entries in any row or column — the
  /// reconfiguration lower bound multiplier of Theorem 2.
  int tau() const;

  /// Entry-wise: this += other (sizes must match).
  Matrix& operator+=(const Matrix& other);

  bool operator==(const Matrix& other) const = default;

  /// Human-readable dump for diagnostics and examples.
  std::string to_string(int width = 8) const;

  /// Heap capacity of the dense storage, in elements — alloc-event
  /// accounting for long-lived buffers (SupportIndex::capacity_footprint).
  std::size_t capacity() const { return v_.capacity(); }

 private:
  std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(i) * n_ + j;
  }

  int n_ = 0;
  std::vector<double> v_;
};

}  // namespace reco
