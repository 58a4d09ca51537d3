#include "core/phi_rows.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/sweep/simd.h"
#include "util/logging.h"
#include "util/matrix.h"

namespace cpa {
namespace {

/// max_t |dense_t − sparse_t| (absent sparse entries are 0), in the
/// `std::max(acc, |a − b|)` form of `MaxAbsDiff`.
double DenseSparseMaxAbsDiff(std::span<const double> dense,
                             std::span<const std::uint32_t> clusters,
                             std::span<const double> weights) {
  double change = 0.0;
  std::size_t k = 0;
  for (std::size_t t = 0; t < dense.size(); ++t) {
    double other = 0.0;
    if (k < clusters.size() && clusters[k] == t) other = weights[k++];
    change = std::max(change, std::abs(dense[t] - other));
  }
  return change;
}

/// max_t |a_t − b_t| of two sparse rows: a merge over the union of their
/// supports (every other term is |0 − 0| = 0).
double SparseMaxAbsDiff(std::span<const std::uint32_t> a_clusters,
                        std::span<const double> a_weights,
                        std::span<const std::uint32_t> b_clusters,
                        std::span<const double> b_weights) {
  double change = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a_clusters.size() || j < b_clusters.size()) {
    double a = 0.0;
    double b = 0.0;
    if (j == b_clusters.size() ||
        (i < a_clusters.size() && a_clusters[i] < b_clusters[j])) {
      a = a_weights[i++];
    } else if (i == a_clusters.size() || b_clusters[j] < a_clusters[i]) {
      b = b_weights[j++];
    } else {
      a = a_weights[i++];
      b = b_weights[j++];
    }
    change = std::max(change, std::abs(a - b));
  }
  return change;
}

}  // namespace

void PhiRows::ResetJittered(std::size_t rows, std::size_t cols, Rng& rng) {
  cols_ = cols;
  rows_.assign(rows, Row{});
  initial_.resize(rows);
  form_.assign(rows, Form::kInitial);
  std::vector<double> values(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    initial_[r].state = rng.state();
    for (double& value : values) value = JitteredDraw(rng);
    // NormalizeInPlace's divisor; a row of T ≥ 1 entries ≥ 1 sums above 0.
    initial_[r].sum = Sum(values);
  }
}

void PhiRows::ResetOneHot(std::size_t rows, std::size_t cols) {
  CPA_CHECK_GT(cols, 0u);
  cols_ = cols;
  rows_.assign(rows, Row{});
  initial_.clear();
  form_.assign(rows, Form::kSparse);
  for (std::size_t r = 0; r < rows; ++r) AssignOneHot(r, r % cols);
}

void PhiRows::RegenerateInitial(std::size_t r, std::span<double> out) const {
  CPA_CHECK_LT(r, initial_.size());
  CPA_CHECK_EQ(out.size(), cols_);
  Rng rng = Rng::FromState(initial_[r].state);
  const double sum = initial_[r].sum;
  for (double& value : out) value = JitteredDraw(rng) / sum;
}

std::span<const double> PhiRows::RegenerateToScratch(std::size_t r) const {
  thread_local std::vector<double> scratch;
  scratch.resize(cols_);
  RegenerateInitial(r, scratch);
  return scratch;
}

PhiRows::Entries PhiRows::GatherAtLeast(std::size_t r, double threshold) const {
  thread_local std::vector<std::uint32_t> clusters;
  thread_local std::vector<double> weights;
  clusters.resize(cols_);
  weights.resize(cols_);
  std::uint32_t* const out_clusters = clusters.data();
  double* const out_weights = weights.data();
  std::size_t count = 0;
  // Every entry is written and the cursor advances past the kept ones
  // only: no branch on the weight, which early online rows would
  // mispredict (many of their nonzeros sit just under the threshold).
  const auto keep = [&](std::size_t t, double w) {
    out_clusters[count] = static_cast<std::uint32_t>(t);
    out_weights[count] = w;
    count += w >= threshold;
  };
  if (form_[r] == Form::kDense) {
    // The threshold is > 0, so the zeros drop out with the rest.
    const std::vector<double>& values = rows_[r].weights;
    for (std::size_t t = 0; t < values.size(); ++t) keep(t, values[t]);
  } else {
    ForEachNonzero(r, keep);
  }
  return {{out_clusters, count}, {out_weights, count}};
}

void PhiRows::CopyRow(std::size_t r, std::span<double> out) const {
  CPA_CHECK_EQ(out.size(), cols_);
  const Row& row = rows_[r];
  switch (form_[r]) {
    case Form::kInitial:
      RegenerateInitial(r, out);
      return;
    case Form::kDense:
      std::copy(row.weights.begin(), row.weights.end(), out.begin());
      return;
    case Form::kSparse:
      std::fill(out.begin(), out.end(), 0.0);
      for (std::size_t k = 0; k < row.clusters.size(); ++k) {
        out[row.clusters[k]] = row.weights[k];
      }
      return;
  }
}

std::vector<double> PhiRows::DenseRow(std::size_t r) const {
  std::vector<double> out(cols_);
  CopyRow(r, out);
  return out;
}

double PhiRows::At(std::size_t r, std::size_t t) const {
  CPA_CHECK_LT(t, cols_);
  const Row& row = rows_[r];
  switch (form_[r]) {
    case Form::kInitial:
      return RegenerateToScratch(r)[t];
    case Form::kDense:
      return row.weights[t];
    case Form::kSparse:
      break;
  }
  const auto heavy_end = row.clusters.begin() + row.heavy;
  for (const auto& [first, last] :
       {std::pair{row.clusters.begin(), heavy_end}, std::pair{heavy_end, row.clusters.end()}}) {
    const auto it = std::lower_bound(first, last, t);
    if (it != last && *it == t) {
      return row.weights[static_cast<std::size_t>(it - row.clusters.begin())];
    }
  }
  return 0.0;
}

std::size_t PhiRows::CopyNonzeros(std::size_t r, std::span<std::uint32_t> clusters,
                                  std::span<double> weights) const {
  CPA_CHECK_GE(clusters.size(), cols_);
  CPA_CHECK_GE(weights.size(), cols_);
  std::size_t count = 0;
  ForEachNonzero(r, [&](std::size_t t, double w) {
    clusters[count] = static_cast<std::uint32_t>(t);
    weights[count] = w;
    ++count;
  });
  return count;
}

std::size_t PhiRows::ArgMax(std::size_t r) const {
  const Row& row = rows_[r];
  switch (form_[r]) {
    case Form::kInitial: {
      const std::span<const double> values = RegenerateToScratch(r);
      return static_cast<std::size_t>(
          std::max_element(values.begin(), values.end()) - values.begin());
    }
    case Form::kDense:
      return static_cast<std::size_t>(
          std::max_element(row.weights.begin(), row.weights.end()) -
          row.weights.begin());
    case Form::kSparse:
      break;
  }
  // In ascending cluster order, so ties keep the first; every stored
  // weight is > 0, so the zeros in between never win.
  std::size_t best = 0;
  double best_weight = 0.0;
  bool first = true;
  ForEachNonzero(r, [&](std::size_t t, double w) {
    if (first || best_weight < w) {
      best = t;
      best_weight = w;
      first = false;
    }
  });
  return best;
}

void PhiRows::AddRows(std::size_t begin, std::size_t end,
                      std::span<double> into) const {
  CPA_CHECK_EQ(into.size(), cols_);
  CPA_CHECK_LE(end, rows());
  std::size_t r = begin;
  while (r < end) {
    const Row& row = rows_[r];
    if (form_[r] == Form::kSparse) {
      for (std::size_t k = 0; k < row.clusters.size(); ++k) {
        into[row.clusters[k]] += row.weights[k];
      }
      ++r;
      continue;
    }
    if (form_[r] == Form::kDense) {
      // The zeros add +0.0 to sums that started at +0 and only grew.
      simd::Accumulate(into, row.weights);
      ++r;
      continue;
    }
    if (r + 4 <= end && IsInitial(r + 1) && IsInitial(r + 2) && IsInitial(r + 3)) {
      std::uint64_t states[16];
      double sums[4];
      for (std::size_t k = 0; k < 4; ++k) {
        std::copy_n(initial_[r + k].state.begin(), 4, states + 4 * k);
        sums[k] = initial_[r + k].sum;
      }
      simd::Active().add_jittered_rows4(states, sums, into.data(), into.size());
      r += 4;
      continue;
    }
    Rng rng = Rng::FromState(initial_[r].state);
    const double sum = initial_[r].sum;
    for (double& value : into) value += JitteredDraw(rng) / sum;
    ++r;
  }
}

double PhiRows::MaxAbsDiff(std::size_t r, std::span<const std::uint32_t> clusters,
                           std::span<const double> weights) const {
  switch (form_[r]) {
    case Form::kInitial:
      return DenseSparseMaxAbsDiff(RegenerateToScratch(r), clusters, weights);
    case Form::kDense:
      return DenseSparseMaxAbsDiff(rows_[r].weights, clusters, weights);
    case Form::kSparse:
      break;
  }
  // The merge below wants row r ascending: join its two runs first.
  thread_local std::vector<std::uint32_t> row_clusters;
  thread_local std::vector<double> row_weights;
  row_clusters.resize(cols_);
  row_weights.resize(cols_);
  const std::size_t n = CopyNonzeros(r, row_clusters, row_weights);
  return SparseMaxAbsDiff(std::span(row_clusters).first(n),
                          std::span(row_weights).first(n), clusters, weights);
}

void PhiRows::Assign(std::size_t r, std::span<const double> values) {
  CPA_CHECK_EQ(values.size(), cols_);
  // One branch-free compaction pass into this thread's T-wide scratch,
  // then the nonzeros into the row's two runs.
  thread_local std::vector<std::uint32_t> clusters;
  thread_local std::vector<double> weights;
  clusters.resize(cols_);
  weights.resize(cols_);
  std::size_t count = 0;
  for (std::size_t t = 0; t < values.size(); ++t) {
    clusters[count] = static_cast<std::uint32_t>(t);
    weights[count] = values[t];
    count += values[t] != 0.0;
  }
  if (3 * count > 2 * cols_) {
    // 12 bytes per pair against 8 per column: keep the dense row.
    Row& row = rows_[r];
    if (row.clusters.capacity() > 0) row = Row{};
    row.weights.assign(values.begin(), values.end());
    form_[r] = Form::kDense;
    return;
  }
  AssignSparse(r, std::span(clusters).first(count), std::span(weights).first(count),
               count);
}

void PhiRows::AssignPairs(std::size_t r, std::span<const std::uint32_t> clusters,
                          std::span<const double> weights) {
  CPA_CHECK_EQ(clusters.size(), weights.size());
  std::size_t count = 0;
  for (const double w : weights) count += w != 0.0;
  if (3 * count > 2 * cols_) {
    // `Assign`'s dense row: the pairs over zeros (an absent entry is 0).
    Row& row = rows_[r];
    if (row.clusters.capacity() > 0) row = Row{};
    row.weights.assign(cols_, 0.0);
    for (std::size_t k = 0; k < clusters.size(); ++k) {
      row.weights[clusters[k]] = weights[k];
    }
    form_[r] = Form::kDense;
    return;
  }
  AssignSparse(r, clusters, weights, count);
}

void PhiRows::AssignSparse(std::size_t r, std::span<const std::uint32_t> clusters,
                           std::span<const double> weights, std::size_t count) {
  Row& row = rows_[r];
  // Exact-size storage, reallocated when the row outgrows it or shrinks to
  // under half of it: online rows start near-dense and thin out as the
  // stream goes on, and must not keep their early footprint.
  if (row.weights.capacity() < count || row.weights.capacity() > 2 * count) {
    row = Row{};
    row.clusters.reserve(count);
    row.weights.reserve(count);
  }
  std::size_t heavy = 0;
  for (const double w : weights) heavy += w >= kHeavyWeight;
  row.clusters.resize(count);
  row.weights.resize(count);
  std::size_t next_heavy = 0;
  std::size_t next_light = heavy;
  for (std::size_t k = 0; k < clusters.size(); ++k) {
    if (weights[k] == 0.0) continue;  // dropped, as `Assign` drops zeros
    const std::size_t at = weights[k] >= kHeavyWeight ? next_heavy++ : next_light++;
    row.clusters[at] = clusters[k];
    row.weights[at] = weights[k];
  }
  row.heavy = static_cast<std::uint32_t>(heavy);
  form_[r] = Form::kSparse;
}

void PhiRows::AssignOneHot(std::size_t r, std::size_t t) {
  CPA_CHECK_LT(t, cols_);
  Row& row = rows_[r];
  if (row.weights.capacity() > 2) row = Row{};  // Assign's shrink rule
  row.clusters.assign(1, static_cast<std::uint32_t>(t));
  row.weights.assign(1, 1.0);
  row.heavy = 1;  // 1.0 ≥ kHeavyWeight
  form_[r] = Form::kSparse;
}

void PhiRows::Restore(std::size_t r, std::span<const double> values) {
  CPA_CHECK_EQ(values.size(), cols_);
  if (!initial_.empty()) {
    const std::span<const double> initial = RegenerateToScratch(r);
    if (std::memcmp(initial.data(), values.data(), cols_ * sizeof(double)) == 0) {
      rows_[r] = Row{};
      form_[r] = Form::kInitial;
      return;
    }
  }
  Assign(r, values);
}

std::size_t PhiRows::HeapBytes() const {
  std::size_t bytes = rows_.capacity() * sizeof(Row) +
                      initial_.capacity() * sizeof(InitialRow) +
                      form_.capacity() * sizeof(Form);
  for (const Row& row : rows_) {
    bytes += row.clusters.capacity() * sizeof(std::uint32_t) +
             row.weights.capacity() * sizeof(double);
  }
  return bytes;
}

double MaxAbsDiff(const PhiRows& a, const PhiRows& b) {
  CPA_CHECK_EQ(a.rows(), b.rows());
  CPA_CHECK_EQ(a.cols(), b.cols());
  std::vector<double> a_row(a.cols());
  std::vector<double> b_row(b.cols());
  double change = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    a.CopyRow(r, a_row);
    b.CopyRow(r, b_row);
    change = std::max(change, MaxAbsDiff(a_row, b_row));
  }
  return change;
}

}  // namespace cpa
