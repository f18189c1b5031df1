#include "core/coflow.hpp"

#include <gtest/gtest.h>

namespace reco {
namespace {

Coflow make(const Matrix& demand) {
  Coflow c;
  c.id = 0;
  c.demand = demand;
  return c;
}

TEST(Coflow, WidthCounts) {
  const Coflow c = make(Matrix::from_rows({{1, 0, 0}, {2, 0, 3}, {0, 0, 0}}));
  EXPECT_EQ(c.width_in(), 2);   // rows 0 and 1
  EXPECT_EQ(c.width_out(), 2);  // cols 0 and 2
}

TEST(Coflow, ModeS2S) {
  const Coflow c = make(Matrix::from_rows({{0, 0}, {5, 0}}));
  EXPECT_EQ(c.mode(), TransmissionMode::kS2S);
}

TEST(Coflow, ModeS2M) {
  const Coflow c = make(Matrix::from_rows({{1, 2}, {0, 0}}));
  EXPECT_EQ(c.mode(), TransmissionMode::kS2M);
}

TEST(Coflow, ModeM2S) {
  const Coflow c = make(Matrix::from_rows({{1, 0}, {2, 0}}));
  EXPECT_EQ(c.mode(), TransmissionMode::kM2S);
}

TEST(Coflow, ModeM2M) {
  const Coflow c = make(Matrix::from_rows({{1, 0}, {0, 2}}));
  EXPECT_EQ(c.mode(), TransmissionMode::kM2M);
}

TEST(Coflow, DensityThresholdsMatchTableI) {
  EXPECT_EQ(classify_density(0.01), DensityClass::kSparse);
  EXPECT_EQ(classify_density(0.05), DensityClass::kSparse);   // boundary inclusive
  EXPECT_EQ(classify_density(0.0501), DensityClass::kNormal);
  EXPECT_EQ(classify_density(0.5), DensityClass::kNormal);    // boundary inclusive
  EXPECT_EQ(classify_density(0.51), DensityClass::kDense);
}

TEST(Coflow, DensityClassUsesMatrixDensity) {
  Matrix m(10);  // 100 cells
  for (int i = 0; i < 10; ++i) m.at(i, i) = 1.0;  // 10 nonzeros -> DS = 0.1
  EXPECT_EQ(make(m).density_class(), DensityClass::kNormal);
}

TEST(Coflow, VolumeAndBottleneck) {
  const Coflow c = make(Matrix::from_rows({{3, 1}, {0, 2}}));
  EXPECT_DOUBLE_EQ(c.total_volume(), 6.0);
  EXPECT_DOUBLE_EQ(c.bottleneck(), 4.0);  // row 0 sum
}

}  // namespace
}  // namespace reco
