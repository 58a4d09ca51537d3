#include "util/matrix.h"

#include <vector>

#include <gtest/gtest.h>

namespace cpa {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, InitializerListLayout) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
}

TEST(MatrixTest, RowViewsAliasStorage) {
  Matrix m(2, 2, 0.0);
  auto row = m.Row(1);
  row[0] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
}

TEST(MatrixTest, FillAndReset) {
  Matrix m(2, 2, 3.0);
  m.Fill(7.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
  m.Reset(1, 4, -1.0);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_DOUBLE_EQ(m(0, 3), -1.0);
}

TEST(MatrixTest, RowAndColSums) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.RowSum(0), 3.0);
  EXPECT_DOUBLE_EQ(m.RowSum(1), 7.0);
  EXPECT_DOUBLE_EQ(m.ColSum(0), 4.0);
  EXPECT_DOUBLE_EQ(m.ColSum(1), 6.0);
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a = {{1.0, 2.0}};
  Matrix b = {{1.5, 1.0}};
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 1.0);
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(a), 0.0);
}

TEST(MatrixTest, ArgMaxRow) {
  Matrix m = {{0.1, 0.7, 0.2}, {0.9, 0.05, 0.05}};
  EXPECT_EQ(m.ArgMaxRow(0), 1u);
  EXPECT_EQ(m.ArgMaxRow(1), 0u);
}

TEST(VectorKernelsTest, SumAndNormalize) {
  std::vector<double> v = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(Sum(v), 4.0);
  const double original = NormalizeInPlace(v);
  EXPECT_DOUBLE_EQ(original, 4.0);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

TEST(VectorKernelsTest, NormalizeZeroVectorBecomesUniform) {
  std::vector<double> v = {0.0, 0.0, 0.0, 0.0};
  NormalizeInPlace(v);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.25);
}

TEST(VectorKernelsTest, DotAndCosine) {
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 2.0};
  const std::vector<double> c = {3.0, 0.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, c), 1.0);
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, zero), 0.0);
}

TEST(VectorKernelsTest, Axpy) {
  const std::vector<double> in = {1.0, 2.0};
  std::vector<double> out = {10.0, 20.0};
  Axpy(0.5, in, out);
  EXPECT_DOUBLE_EQ(out[0], 10.5);
  EXPECT_DOUBLE_EQ(out[1], 21.0);
}

TEST(VectorKernelsTest, MaxAbsDiffSpan) {
  const std::vector<double> a = {1.0, -2.0};
  const std::vector<double> b = {0.5, 2.0};
  EXPECT_DOUBLE_EQ(MaxAbsDiff(a, b), 4.0);
}

}  // namespace
}  // namespace cpa
