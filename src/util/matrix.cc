#include "util/matrix.h"

#include <algorithm>
#include <cmath>

namespace cpa {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() > 0 ? rows.begin()->size() : 0) {
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    CPA_CHECK_EQ(row.size(), cols_) << "ragged initializer";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

void Matrix::Fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::Reset(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

double Matrix::RowSum(std::size_t r) const { return Sum(Row(r)); }

double Matrix::ColSum(std::size_t c) const {
  CPA_CHECK_LT(c, cols_);
  double total = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) total += data_[r * cols_ + c];
  return total;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  CPA_CHECK_EQ(rows_, other.rows_);
  CPA_CHECK_EQ(cols_, other.cols_);
  return cpa::MaxAbsDiff(Data(), other.Data());
}

std::size_t Matrix::ArgMaxRow(std::size_t r) const {
  const auto row = Row(r);
  return static_cast<std::size_t>(
      std::max_element(row.begin(), row.end()) - row.begin());
}

// Sum, Dot and Axpy are defined in core/sweep/sweep_kernels_avx2.cc — the
// dispatched-kernel TU — so the span primitives run the runtime-selected
// scalar/AVX2 variant everywhere.

double NormalizeInPlace(std::span<double> v) {
  const double total = Sum(v);
  if (total <= 0.0) {
    if (!v.empty()) {
      const double uniform = 1.0 / static_cast<double>(v.size());
      std::fill(v.begin(), v.end(), uniform);
    }
    return total;
  }
  for (double& x : v) x /= total;
  return total;
}

double CosineSimilarity(std::span<const double> a, std::span<const double> b) {
  const double dot = Dot(a, b);
  const double na = std::sqrt(Dot(a, a));
  const double nb = std::sqrt(Dot(b, b));
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / (na * nb);
}

double MaxAbsDiff(std::span<const double> a, std::span<const double> b) {
  CPA_CHECK_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

}  // namespace cpa
