#ifndef CPA_CORE_PHI_ROWS_H_
#define CPA_CORE_PHI_ROWS_H_

/// \file phi_rows.h
/// \brief ϕ, the I × T item-cluster responsibilities, stored by support.
///
/// A fitted ϕ row holds a few dozen nonzero entries out of T (the floored
/// softmax of the Eq. 3 kernels sets every other entry to exactly 0), so a
/// written row keeps only its nonzero `(cluster, weight)` pairs — unless it
/// has so many that T plain doubles take less room (early online rows), in
/// which case it keeps those. The pairs are stored in two runs, each
/// ascending by cluster: first the entries of at least `kHeavyWeight`, then
/// the rest. The sweep kernels skip everything under that weight, so they
/// read the first run in place; readers of every nonzero merge the two.
/// A row never written
/// since `CpaModel::Create` is dense and random — (1 + 0.1·u_t) /
/// Σ_t (1 + 0.1·u_t) over T draws u of the model's generator — so it keeps
/// only the generator state at its first draw and its normaliser, and
/// readers regenerate its values on demand, bit for bit.
///
/// Dropping the zeros is exact for every reader: ϕ ≥ 0, so a left-out entry
/// removes only a `+0.0` addend or a `|0 − x|` term, and neither changes
/// any bit of a sum started at +0 or of a max (ARCHITECTURE.md §3d).
///
/// Rows are independent objects, so MAP shards may write disjoint rows
/// concurrently. The store is copyable.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace cpa {

/// One entry of a `PhiRows::ResetJittered` row before normalisation: the
/// draw `CpaModel::Create` has always initialised ϕ with.
inline double JitteredDraw(Rng& rng) { return 1.0 + 0.1 * rng.NextDouble(); }

/// The weight that splits a written row's pairs into its two runs; the
/// sweep kernels' skip mass (`sweep::kSkipMass`).
inline constexpr double kHeavyWeight = 1e-8;

/// \brief Sparse row store of ϕ with regenerated initial rows.
class PhiRows {
 public:
  PhiRows() = default;

  /// `rows` × `cols` rows drawn as `CpaModel::Create` initialises ϕ: row r
  /// takes the next `cols` draws of `rng` (rows in order), each entry
  /// `JitteredDraw`, normalised by the row's lane-ordered `Sum`. Leaves
  /// `rng` past all rows·cols draws, and stores one generator state and
  /// one normaliser per row, never the values.
  void ResetJittered(std::size_t rows, std::size_t cols, Rng& rng);

  /// `rows` × `cols` rows, row r one-hot on cluster r % cols (the
  /// singleton-cluster initialisation). No row is initial.
  void ResetOneHot(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return cols_; }

  /// \name Reading a row.
  /// @{

  /// True while row r still holds its `ResetJittered` values (never written,
  /// or restored bit-equal to them).
  bool IsInitial(std::size_t r) const { return form_[r] == Form::kInitial; }

  /// Row r as `cols` dense values in `out`.
  void CopyRow(std::size_t r, std::span<double> out) const;

  /// Row r as a fresh dense vector (tests, Debug cross-checks).
  std::vector<double> DenseRow(std::size_t r) const;

  /// Entry (r, t).
  double At(std::size_t r, std::size_t t) const;

  /// Calls `fn(t, weight)` for every nonzero entry of row r in ascending t.
  /// An initial row is regenerated into this thread's scratch first; `fn`
  /// must not read another initial row through this store meanwhile.
  template <typename Fn>
  void ForEachNonzero(std::size_t r, Fn&& fn) const {
    const Row& row = rows_[r];
    switch (form_[r]) {
      case Form::kInitial: {
        const std::span<const double> values = RegenerateToScratch(r);
        for (std::size_t t = 0; t < values.size(); ++t) fn(t, values[t]);
        return;
      }
      case Form::kDense:
        for (std::size_t t = 0; t < row.weights.size(); ++t) {
          if (row.weights[t] != 0.0) fn(t, row.weights[t]);
        }
        return;
      case Form::kSparse: {
        // Merge of the two ascending runs [0, heavy) and [heavy, n), with
        // the pick as a select rather than a branch.
        const std::size_t n = row.clusters.size();
        std::size_t i = 0;
        std::size_t j = row.heavy;
        while (i < row.heavy && j < n) {
          const bool from_heavy = row.clusters[i] < row.clusters[j];
          const std::size_t k = from_heavy ? i : j;
          fn(static_cast<std::size_t>(row.clusters[k]), row.weights[k]);
          i += from_heavy;
          j += !from_heavy;
        }
        for (; i < row.heavy; ++i) {
          fn(static_cast<std::size_t>(row.clusters[i]), row.weights[i]);
        }
        for (; j < n; ++j) fn(static_cast<std::size_t>(row.clusters[j]), row.weights[j]);
        return;
      }
    }
  }

  /// One row's entries at or above a threshold, ascending by cluster.
  struct Entries {
    std::span<const std::uint32_t> clusters;
    std::span<const double> weights;
  };

  /// Row r's entries at or above `threshold` (> 0, so never a zero),
  /// ascending by cluster. At `kHeavyWeight` a written sparse row returns
  /// its first run in place (valid until row r is written); every other
  /// case is gathered, branch-free, into this thread's scratch (valid until
  /// the next gathering call on the thread).
  Entries AtLeast(std::size_t r, double threshold) const {
    const Row& row = rows_[r];
    if (form_[r] == Form::kSparse && threshold == kHeavyWeight) {
      return {{row.clusters.data(), row.heavy}, {row.weights.data(), row.heavy}};
    }
    return GatherAtLeast(r, threshold);
  }

  /// Writes row r's nonzero entries, ascending, into `clusters` and
  /// `weights` (each at least `cols` long) and returns how many there are.
  std::size_t CopyNonzeros(std::size_t r, std::span<std::uint32_t> clusters,
                           std::span<double> weights) const;

  /// Index of the largest entry of row r (the first one on ties, as
  /// `std::max_element` over the dense row).
  std::size_t ArgMax(std::size_t r) const;

  /// Adds rows [begin, end) into `into` (cols doubles) element by element
  /// in row order — `into[t] += ϕ(r, t)` for r ascending — skipping zeros.
  /// Runs of initial rows are regenerated four rows at a time, interleaved
  /// per column (`simd::Kernels::add_jittered_rows4`), which keeps each
  /// element's addition order.
  void AddRows(std::size_t begin, std::size_t end, std::span<double> into) const;

  /// max_t |ϕ(r, t) − other_t| of row r against the sparse row
  /// (`clusters`, `weights`) (ascending clusters; absent entries are 0).
  /// Equals `MaxAbsDiff` of the two dense rows bit for bit: terms outside
  /// both supports are |0 − 0| = 0, and max is a selection.
  double MaxAbsDiff(std::size_t r, std::span<const std::uint32_t> clusters,
                    std::span<const double> weights) const;

  /// @}

  /// \name Writing a row. Writers of distinct rows may run concurrently.
  /// @{

  /// Replaces row r by the dense row `values` (cols doubles), keeping its
  /// nonzero entries — or all of `values`, when cols doubles take less room
  /// than the nonzero pairs (12 bytes each).
  void Assign(std::size_t r, std::span<const double> values);

  /// Replaces row r by the row whose nonzeros are the pairs (`clusters`,
  /// `weights`), ascending by cluster and every other entry 0: the row
  /// `Assign` stores for that dense row, without a T-wide pass unless the
  /// row is kept dense. Zero weights are dropped as `Assign` drops them.
  void AssignPairs(std::size_t r, std::span<const std::uint32_t> clusters,
                   std::span<const double> weights);

  /// Replaces row r by the single entry (t, 1.0).
  void AssignOneHot(std::size_t r, std::size_t t);

  /// Restores row r from the dense `values`: a row bit-equal to its
  /// `ResetJittered` row becomes initial again (its storage released),
  /// anything else is assigned like `Assign`.
  void Restore(std::size_t r, std::span<const double> values);

  /// @}

  /// Bytes this store holds on the heap (row capacities, per-row headers,
  /// initial states).
  std::size_t HeapBytes() const;

 private:
  /// How row r is held. `kInitial`: only `initial_[r]`. `kSparse`: the
  /// nonzero pairs in `Row`. `kDense`: `Row::weights` holds all cols
  /// values and `Row::clusters` is empty.
  enum class Form : std::uint8_t { kInitial, kSparse, kDense };

  /// A sparse row's pairs [0, heavy) weigh at least `kHeavyWeight` and
  /// [heavy, n) less; each run is ascending by cluster.
  struct Row {
    std::vector<std::uint32_t> clusters;
    std::vector<double> weights;
    std::uint32_t heavy = 0;
  };
  struct InitialRow {
    Rng::State state{};
    double sum = 1.0;
  };

  /// The `ResetJittered` values of row r written into `out` (cols doubles),
  /// whether or not the row has been written since.
  void RegenerateInitial(std::size_t r, std::span<double> out) const;

  /// Row r's initial values in this thread's scratch (valid until the next
  /// call on the same thread).
  std::span<const double> RegenerateToScratch(std::size_t r) const;

  /// Stores row r as the sparse pairs (`clusters`, `weights`), ascending,
  /// of which `count` have a nonzero weight (the zeros are skipped).
  void AssignSparse(std::size_t r, std::span<const std::uint32_t> clusters,
                    std::span<const double> weights, std::size_t count);

  /// `AtLeast` for every case but a sparse row at `kHeavyWeight`.
  Entries GatherAtLeast(std::size_t r, double threshold) const;

  std::size_t cols_ = 0;
  std::vector<Row> rows_;
  /// Per row: the generator state at its first draw and its normaliser.
  /// Empty for a `ResetOneHot` store; kept after a row is written, so the
  /// Create-time row stays reproducible (checkpoint restore).
  std::vector<InitialRow> initial_;
  std::vector<Form> form_;
};

/// max |a − b| over every entry of two stores of equal shape, one row pair
/// at a time through T-wide scratch (tests and Debug cross-checks).
double MaxAbsDiff(const PhiRows& a, const PhiRows& b);

}  // namespace cpa

#endif  // CPA_CORE_PHI_ROWS_H_
