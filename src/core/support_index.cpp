#include "core/support_index.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

namespace reco {

SupportIndex::SupportIndex(Matrix m) : m_(std::move(m)) { build_from_matrix(); }

void SupportIndex::assign(const Matrix& m) {
  m_ = m;  // dense storage: vector copy-assign reuses capacity
  build_from_matrix();
}

void SupportIndex::build_from_matrix() {
  const int n = m_.n();
  const std::size_t cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  row_cols_.resize(cells);
  row_vals_.resize(cells);
  row_len_.assign(n, 0);
  row_sum_.assign(n, 0.0);
  col_sum_.assign(n, 0.0);
  row_dirty_.assign(n, 0);
  nnz_ = 0;
  for (int i = 0; i < n; ++i) {
    // The O(N^2) part, with no data-dependent branch per cell: snap ingest
    // crumbs to +0.0 by masking their bits, and write every cell's column
    // and value at the row's fill point, which advances only past a kept
    // (nonzero) cell.
    double* row = m_.row_data(i);
    int* cols = row_cols_.data() + base(i);
    double* vals = row_vals_.data() + base(i);
    int len = 0;
    for (int j = 0; j < n; ++j) {
      const std::uint64_t keep = 0 - std::uint64_t{!approx_zero(row[j])};
      const double v = std::bit_cast<double>(std::bit_cast<std::uint64_t>(row[j]) & keep);
      row[j] = v;
      cols[len] = j;
      vals[len] = v;
      len += static_cast<int>(keep & 1);
    }
    // The sums from the row's nonzeros, in row-major order: the same
    // additions in the same order as a dense scan.
    Time sum = 0.0;
    for (int k = 0; k < len; ++k) {
      sum += vals[k];
      col_sum_[cols[k]] += vals[k];
    }
    row_len_[i] = len;
    row_sum_[i] = sum;
    nnz_ += len;
  }
}

void SupportIndex::drop_zeros() {
  nnz_ = 0;
  for (int i = 0; i < m_.n(); ++i) {
    int* cols = row_cols_.data() + base(i);
    double* vals = row_vals_.data() + base(i);
    const int len = row_len_[i];
    int kept = 0;
    for (int k = 0; k < len; ++k) {
      if (vals[k] == 0.0) continue;
      cols[kept] = cols[k];
      vals[kept] = vals[k];
      ++kept;
    }
    row_len_[i] = kept;
    nnz_ += kept;
  }
}

void SupportIndex::resum() {
  std::fill(col_sum_.begin(), col_sum_.end(), 0.0);
  for (int i = 0; i < m_.n(); ++i) {
    const int* cols = row_cols_.data() + base(i);
    const double* vals = row_vals_.data() + base(i);
    Time sum = 0.0;
    for (int k = 0; k < row_len_[i]; ++k) {
      sum += vals[k];
      col_sum_[cols[k]] += vals[k];
    }
    row_sum_[i] = sum;
  }
}

SupportIndex SupportIndex::zeros(int n) { return SupportIndex(Matrix(n)); }

Matrix SupportIndex::release() {
  Matrix out = std::move(m_);
  *this = SupportIndex();
  return out;
}

void SupportIndex::update_support(int i, int j, bool now) {
  // Columns and values move in lockstep, so a clean row's value mirror
  // stays clean through structural changes (a dirty row's shifted values
  // are stale either way; the dirty mark already covers them).  The row
  // owns n slots, so an insert always fits where the row lies.
  int& len = row_len_[i];
  int* cols = row_cols_.data() + base(i);
  double* vals = row_vals_.data() + base(i);
  const int pos = static_cast<int>(std::lower_bound(cols, cols + len, j) - cols);
  if (now) {
    std::copy_backward(cols + pos, cols + len, cols + len + 1);
    std::copy_backward(vals + pos, vals + len, vals + len + 1);
    cols[pos] = j;
    vals[pos] = m_.at(i, j);
    ++len;
    ++nnz_;
  } else {
    std::copy(cols + pos + 1, cols + len, cols + pos);
    std::copy(vals + pos + 1, vals + len, vals + pos);
    --len;
    --nnz_;
  }
}

// max_entry and row_sum_exact read the clean-row fast path from the value
// arena and fall back to a dense gather on dirty rows WITHOUT refreshing:
// they stay non-mutating, so const concurrent readers of distinct rows
// (the simulator's satisfaction probes) never race on the mirror.

double SupportIndex::max_entry() const {
  double m = 0.0;
  const int n = m_.n();
  for (int i = 0; i < n; ++i) {
    if (row_dirty_[i]) {
      const double* src = m_.row_data(i);
      const int* cols = row_cols_.data() + base(i);
      for (int k = 0; k < row_len_[i]; ++k) m = std::max(m, src[cols[k]]);
    } else {
      const double* vals = row_vals_.data() + base(i);
      for (int k = 0; k < row_len_[i]; ++k) m = std::max(m, vals[k]);
    }
  }
  return m;
}

Time SupportIndex::total() const {
  Time s = 0.0;
  for (const Time r : row_sum_) s += r;
  return s;
}

Time SupportIndex::row_sum_exact(int i) const {
  Time s = 0.0;
  if (row_dirty_[i]) {
    const double* src = m_.row_data(i);
    const int* cols = row_cols_.data() + base(i);
    for (int k = 0; k < row_len_[i]; ++k) s += src[cols[k]];
  } else {
    const double* vals = row_vals_.data() + base(i);
    for (int k = 0; k < row_len_[i]; ++k) s += vals[k];
  }
  return s;
}

void SupportIndex::col_sums_exact(Time* out) const {
  const int n = m_.n();
  std::fill_n(out, n, 0.0);
  for (int i = 0; i < n; ++i) {
    const double* src = m_.row_data(i);
    const int* cols = row_cols_.data() + base(i);
    for (int k = 0; k < row_len_[i]; ++k) out[cols[k]] += src[cols[k]];
  }
}

std::size_t SupportIndex::capacity_footprint() const {
  return m_.capacity() + row_cols_.capacity() + row_vals_.capacity() + row_len_.capacity() +
         row_dirty_.capacity() + row_sum_.capacity() + col_sum_.capacity();
}

}  // namespace reco
