#include "core/matrix.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace reco {

Matrix Matrix::from_rows(std::initializer_list<std::initializer_list<double>> rows) {
  const int n = static_cast<int>(rows.size());
  Matrix m(n);
  int i = 0;
  for (const auto& row : rows) {
    if (static_cast<int>(row.size()) != n) {
      throw std::invalid_argument("Matrix::from_rows: ragged initializer");
    }
    int j = 0;
    for (double x : row) m.at(i, j++) = x;
    ++i;
  }
  return m;
}

int Matrix::nnz() const {
  int count = 0;
  for (double x : v_) {
    if (!approx_zero(x)) ++count;
  }
  return count;
}

double Matrix::density() const {
  if (n_ == 0) return 0.0;
  return static_cast<double>(nnz()) / (static_cast<double>(n_) * n_);
}

Time Matrix::row_sum(int i) const {
  Time s = 0.0;
  for (int j = 0; j < n_; ++j) s += at(i, j);
  return s;
}

Time Matrix::col_sum(int j) const {
  Time s = 0.0;
  for (int i = 0; i < n_; ++i) s += at(i, j);
  return s;
}

Time Matrix::total() const {
  Time s = 0.0;
  for (double x : v_) s += x;
  return s;
}

double Matrix::max_entry() const {
  double m = 0.0;
  for (double x : v_) m = std::max(m, x);
  return m;
}

double Matrix::min_nonzero() const {
  double m = 0.0;
  for (double x : v_) {
    if (!approx_zero(x) && (m == 0.0 || x < m)) m = x;
  }
  return m;
}

Time Matrix::rho() const {
  Time r = 0.0;
  for (int i = 0; i < n_; ++i) r = std::max(r, row_sum(i));
  for (int j = 0; j < n_; ++j) r = std::max(r, col_sum(j));
  return r;
}

int Matrix::tau() const {
  int t = 0;
  for (int i = 0; i < n_; ++i) {
    int row_nnz = 0;
    for (int j = 0; j < n_; ++j) {
      if (!approx_zero(at(i, j))) ++row_nnz;
    }
    t = std::max(t, row_nnz);
  }
  for (int j = 0; j < n_; ++j) {
    int col_nnz = 0;
    for (int i = 0; i < n_; ++i) {
      if (!approx_zero(at(i, j))) ++col_nnz;
    }
    t = std::max(t, col_nnz);
  }
  return t;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (n_ != other.n_) throw std::invalid_argument("Matrix::+=: size mismatch");
  for (std::size_t p = 0; p < v_.size(); ++p) v_[p] += other.v_[p];
  return *this;
}

std::string Matrix::to_string(int width) const {
  std::ostringstream out;
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      out.width(width);
      out << at(i, j) << (j + 1 == n_ ? "" : " ");
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace reco
