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
  row_cols_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  row_len_.resize(n);
  row_sum_.resize(n);
  col_sum_.resize(n);
  nnz_ = 0;
  for (int i = 0; i < n; ++i) {
    // The O(N^2) part, with no data-dependent branch per cell: snap ingest
    // crumbs to +0.0 by masking their bits, and write every cell's column
    // at the row's fill point, which advances only past a kept (nonzero)
    // cell.
    double* row = m_.row_data(i);
    int* cols = row_cols_.data() + base(i);
    int len = 0;
    for (int j = 0; j < n; ++j) {
      const std::uint64_t keep = 0 - std::uint64_t{!approx_zero(row[j])};
      row[j] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(row[j]) & keep);
      cols[len] = j;
      len += static_cast<int>(keep & 1);
    }
    row_len_[i] = len;
    nnz_ += len;
  }
  // The sums from the nonzeros, in row-major order: the same additions in
  // the same order as a dense scan.
  resum();
}

void SupportIndex::drop_zeros() {
  nnz_ = 0;
  for (int i = 0; i < m_.n(); ++i) {
    const double* row = m_.row_data(i);
    int* cols = row_cols_.data() + base(i);
    const int len = row_len_[i];
    int kept = 0;
    for (int k = 0; k < len; ++k) {
      if (row[cols[k]] != 0.0) cols[kept++] = cols[k];
    }
    row_len_[i] = kept;
    nnz_ += kept;
  }
}

void SupportIndex::resum() {
  std::fill(col_sum_.begin(), col_sum_.end(), 0.0);
  for (int i = 0; i < m_.n(); ++i) {
    const double* row = m_.row_data(i);
    Time sum = 0.0;
    for (const int j : row_support(i)) {
      sum += row[j];
      col_sum_[j] += row[j];
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
  // The row owns n slots, so an insert always fits where the row lies.
  int& len = row_len_[i];
  int* cols = row_cols_.data() + base(i);
  int* pos = std::lower_bound(cols, cols + len, j);
  if (now) {
    std::copy_backward(pos, cols + len, cols + len + 1);
    *pos = j;
    ++len;
    ++nnz_;
  } else {
    std::copy(pos + 1, cols + len, pos);
    --len;
    --nnz_;
  }
}

double SupportIndex::max_entry() const {
  double m = 0.0;
  for (int i = 0; i < m_.n(); ++i) {
    const double* row = m_.row_data(i);
    for (const int j : row_support(i)) m = std::max(m, row[j]);
  }
  return m;
}

Time SupportIndex::total() const {
  Time s = 0.0;
  for (const Time r : row_sum_) s += r;
  return s;
}

Time SupportIndex::row_sum_exact(int i) const {
  const double* row = m_.row_data(i);
  Time s = 0.0;
  for (const int j : row_support(i)) s += row[j];
  return s;
}

void SupportIndex::col_sums_exact(Time* out) const {
  std::fill_n(out, m_.n(), 0.0);
  for (int i = 0; i < m_.n(); ++i) {
    const double* row = m_.row_data(i);
    for (const int j : row_support(i)) out[j] += row[j];
  }
}

std::size_t SupportIndex::capacity_footprint() const {
  return m_.capacity() + row_cols_.capacity() + row_len_.capacity() + row_sum_.capacity() +
         col_sum_.capacity();
}

}  // namespace reco
