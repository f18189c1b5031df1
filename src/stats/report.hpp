// Fixed-width console tables shared by all bench binaries, so every
// experiment's output has the same, diffable shape:
//
//   == Fig. 4(a): reconfiguration frequency ============
//   density   Reco-Sin   Solstice   ratio   paper
//   sparse        12.3       31.8   2.58x   2.58x
#pragma once

#include <string>
#include <vector>

namespace reco {

/// A simple right-aligned text table with a heading.
class ReportTable {
 public:
  explicit ReportTable(std::string title);

  /// Set the column headers (defines the column count).
  void set_header(std::vector<std::string> header);

  /// Add one row; must match the header's column count.
  void add_row(std::vector<std::string> row);

  /// Render with a banner, padded columns, and a trailing blank line.
  std::string to_string() const;

  /// Shorthand: render and print to stdout.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers for table cells.
std::string fmt_double(double x, int precision = 2);
std::string fmt_ratio(double x, int precision = 2);  ///< "3.44x"
std::string fmt_time(double seconds);                ///< auto us/ms/s units

}  // namespace reco
