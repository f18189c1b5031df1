#include "stats/report.hpp"

#include <gtest/gtest.h>

namespace reco {
namespace {

TEST(Report, RendersHeaderAndRows) {
  ReportTable t("Fig. X: example");
  t.set_header({"density", "Reco-Sin", "Solstice"});
  t.add_row({"sparse", "12.3", "31.8"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Fig. X: example"), std::string::npos);
  EXPECT_NE(s.find("density"), std::string::npos);
  EXPECT_NE(s.find("31.8"), std::string::npos);
}

TEST(Report, ColumnsAreAligned) {
  ReportTable t("t");
  t.set_header({"a", "bbbb"});
  t.add_row({"xxxxxx", "1"});
  const std::string s = t.to_string();
  // Both data rows should have the same line length as the header line.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t nl = s.find('\n', pos);
    lines.push_back(s.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[1].size(), lines[2].size());
}

TEST(Report, MismatchedRowThrows) {
  ReportTable t("t");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Report, FormatHelpers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_ratio(2.5), "2.50x");
  EXPECT_EQ(fmt_time(50e-6), "50.0us");
  EXPECT_EQ(fmt_time(0.25), "250.00ms");
  EXPECT_EQ(fmt_time(3.5), "3.500s");
}

}  // namespace
}  // namespace reco
