#include "stats/summary.hpp"

#include <gtest/gtest.h>

namespace reco {
namespace {

TEST(Summary, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Summary, PercentileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 95), 48.0);  // between 40 and 50
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 95), 48.0);
}

TEST(Summary, PercentileUnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile({30, 10, 20}, 50), 20.0);
}

TEST(Summary, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 95), 7.0);
  EXPECT_THROW(percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 50), 0.0);
  EXPECT_THROW(percentile_sorted({1.0}, -1), std::invalid_argument);
  EXPECT_THROW(percentile_sorted({1.0}, 101), std::invalid_argument);
}

TEST(Summary, NormalizedRatio) {
  EXPECT_DOUBLE_EQ(normalized_ratio({4.0, 6.0}, {1.0, 1.0}), 5.0);
  EXPECT_DOUBLE_EQ(normalized_ratio({1.0}, {}), 0.0);
  EXPECT_DOUBLE_EQ(normalized_ratio({1.0}, {0.0}), 0.0);
}

}  // namespace
}  // namespace reco
