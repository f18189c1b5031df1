#include "stats/report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace reco {

ReportTable::ReportTable(std::string title) : title_(std::move(title)) {}

void ReportTable::set_header(std::vector<std::string> header) { header_ = std::move(header); }

void ReportTable::add_row(std::vector<std::string> row) {
  if (!header_.empty() && row.size() != header_.size()) {
    throw std::invalid_argument("ReportTable::add_row: column count mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string ReportTable::to_string() const {
  // Column widths from header + all rows.
  std::vector<std::size_t> width(header_.size(), 0);
  const auto grow = [&](const std::vector<std::string>& row) {
    if (row.size() > width.size()) width.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  };
  grow(header_);
  for (const auto& row : rows_) grow(row);

  std::ostringstream out;
  std::string banner = "== " + title_ + " ";
  while (banner.size() < 68) banner.push_back('=');
  out << banner << '\n';

  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = width[c] - row[c].size();
      if (c == 0) {
        // First column left-aligned (labels).
        out << row[c] << std::string(pad, ' ');
      } else {
        out << std::string(pad, ' ') << row[c];
      }
      out << (c + 1 == row.size() ? "" : "  ");
    }
    out << '\n';
  };
  if (!header_.empty()) emit(header_);
  for (const auto& row : rows_) emit(row);
  out << '\n';
  return out.str();
}

void ReportTable::print() const { std::fputs(to_string().c_str(), stdout); }

std::string fmt_double(double x, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << x;
  return out.str();
}

std::string fmt_ratio(double x, int precision) { return fmt_double(x, precision) + "x"; }

std::string fmt_time(double seconds) {
  if (seconds < 1e-3) return fmt_double(seconds * 1e6, 1) + "us";
  if (seconds < 1.0) return fmt_double(seconds * 1e3, 2) + "ms";
  return fmt_double(seconds, 3) + "s";
}

}  // namespace reco
