#ifndef CPA_UTIL_MATRIX_H_
#define CPA_UTIL_MATRIX_H_

/// \file matrix.h
/// \brief Dense row-major matrix and small vector kernels.
///
/// The inference code manipulates responsibility matrices (workers ×
/// communities, items × clusters) and banks of Dirichlet parameter vectors.
/// A thin owning matrix with `std::span` row views is all that is needed —
/// the hot loops are digamma/exp transforms, not BLAS-style products.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/logging.h"

namespace cpa {

/// \brief Owning dense row-major matrix of doubles.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix with every entry set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Constructs from a nested initializer list (for tests/examples).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    CPA_CHECK_LT(r, rows_);
    CPA_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    CPA_CHECK_LT(r, rows_);
    CPA_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  /// Mutable view of row `r`.
  std::span<double> Row(std::size_t r) {
    CPA_CHECK_LT(r, rows_);
    return {data_.data() + r * cols_, cols_};
  }
  /// Read-only view of row `r`.
  std::span<const double> Row(std::size_t r) const {
    CPA_CHECK_LT(r, rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Raw storage (row-major).
  std::span<double> Data() { return data_; }
  std::span<const double> Data() const { return data_; }

  /// Sets every entry to `value`.
  void Fill(double value);

  /// Resizes to rows x cols, setting all entries to `fill`.
  void Reset(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Sum over a column / over a row.
  double RowSum(std::size_t r) const;
  double ColSum(std::size_t c) const;

  /// Largest absolute entry-wise difference against `other` (same shape).
  double MaxAbsDiff(const Matrix& other) const;

  /// Index of the largest entry in row `r`.
  std::size_t ArgMaxRow(std::size_t r) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// \name Vector kernels (operate on spans so they compose with Matrix rows).
///
/// `Sum`, `Dot` and `Axpy` are defined in the dispatched-kernel TU
/// (core/sweep/sweep_kernels_avx2.cc) and run the runtime-selected scalar
/// or AVX2 variant; both are lane-ordered so results are bit-identical
/// (see core/sweep/simd.h).
/// @{

/// Sum of entries.
double Sum(std::span<const double> v);

/// Scales `v` so it sums to one; if the sum is <= 0 the vector becomes
/// uniform. Returns the original sum.
double NormalizeInPlace(std::span<double> v);

/// Dot product (sizes must match).
double Dot(std::span<const double> a, std::span<const double> b);

/// Cosine similarity; 0 when either vector is all-zero.
double CosineSimilarity(std::span<const double> a, std::span<const double> b);

/// out[i] += scale * in[i].
void Axpy(double scale, std::span<const double> in, std::span<double> out);

/// Largest absolute element-wise difference.
double MaxAbsDiff(std::span<const double> a, std::span<const double> b);

/// @}

}  // namespace cpa

#endif  // CPA_UTIL_MATRIX_H_
