#ifndef CPA_CORE_SWEEP_SWEEP_KERNELS_H_
#define CPA_CORE_SWEEP_SWEEP_KERNELS_H_

/// \file sweep_kernels.h
/// \brief The shared sweep kernels of CPA inference (Algorithm 3's MAP and
/// REDUCE bodies), called by both offline VI (`vi.cc`) and the SVI local
/// phase (`svi.cc`).
///
/// MAP kernels recompute one responsibility row (κ row of a worker — Eq. 2,
/// ϕ row of an item — Eq. 3) from read-only shared state; rows are disjoint,
/// so any sharding over a `SweepScheduler` is thread-count invariant.
/// REDUCE kernels rebuild the global parameters (sticks, λ, ζ, θ, the label
/// evidence ỹ) from the responsibilities; their accumulations run through
/// `SweepScheduler::ParallelReduce` — per-block partial sufficient
/// statistics merged in a fixed tree order — so they too are bit-identical
/// for 1 and N threads.
///
/// All kernels read answers through the flat `AnswerView` (CSR indexes +
/// SoA labels); the hot worker/λ loops additionally take a
/// `ClusterActivity` — the per-item list of clusters with non-negligible ϕ
/// mass — so an answer touches its item's few active clusters instead of
/// scanning a T-wide ϕ row.

#include <cstddef>
#include <span>
#include <vector>

#include "core/cpa_model.h"
#include "core/sweep/answer_view.h"
#include "core/sweep/sweep_scheduler.h"
#include "data/label_set.h"
#include "util/matrix.h"

namespace cpa::sweep {

/// Responsibilities below this mass are skipped in the accumulation loops;
/// rows concentrate quickly, so this saves most of the T×M work.
inline constexpr double kSkipMass = 1e-8;

/// Softmax underflow floor of the responsibility rows (see
/// `SoftmaxInPlace(span, floor)`): dropped entries carry < 1e-12 mass,
/// four orders of magnitude below `kSkipMass`.
inline constexpr double kSoftmaxFloorNats = 27.6;

/// \brief Per-item lists of the clusters carrying at least `kSkipMass` of ϕ.
///
/// Slot layout: item i's entries are the `count[i]` slots starting at
/// `begin[i]` of the parallel `clusters`/`weights` arrays. A full build
/// (`BuildClusterActivity`) emits the compact layout — rows back to back in
/// item order, no dead slots. An incremental patch
/// (`UpdateClusterActivityRows`) rewrites a row that shrinks or keeps its
/// size in place and appends a row that grows at the end, leaving its old
/// slots dead; `live` counts the slots some row still owns. Readers only
/// ever go through `ClustersOf`/`WeightsOf`, so both layouts read the same.
///
/// Offline VI rebuilds it from ϕ whenever a kernel group needs current
/// activity (ϕ changes between the MAP and REDUCE phases of a sweep); the
/// online learner keeps one list current across batches by patching the
/// rows a batch rewrites.
struct ClusterActivity {
  std::vector<std::uint32_t> begin;     ///< I: first slot of each row
  std::vector<std::uint32_t> count;     ///< I: entries of each row
  std::vector<std::uint32_t> clusters;  ///< per slot: active t, ascending per row
  std::vector<double> weights;          ///< per slot: matching ϕ_it value
  std::size_t live = 0;                 ///< Σ count (slots not dead)

  std::span<const std::uint32_t> ClustersOf(ItemId i) const {
    return {clusters.data() + begin[i], count[i]};
  }
  std::span<const double> WeightsOf(ItemId i) const {
    return {weights.data() + begin[i], count[i]};
  }
};

/// Rebuilds `out` from the current ϕ (threshold `kSkipMass` by default;
/// prediction passes its own, lower prune threshold), sharded over the
/// scheduler (counting pass + exclusive scan + fill pass).
void BuildClusterActivity(const Matrix& phi, const SweepScheduler& scheduler,
                          ClusterActivity& out, double threshold = kSkipMass);

/// Recomputes only the activity rows of `items` from the current ϕ (at
/// `kSkipMass`), leaving every other row untouched — the incremental
/// companion of `BuildClusterActivity` for the SVI batch path, where a
/// reinforcement round changes just the batch items' ϕ rows. `out` must
/// already span `phi.rows()` items; duplicate ids in `items` are fine. A
/// row that shrinks or keeps its size is overwritten in place, a row that
/// grows moves to the end of the slot arrays, and once dead slots
/// outnumber live ones the arrays are compacted in one pass. Cost is
/// O(|items| × T) plus the amortised compaction — never an I×T scan, never
/// a per-call copy of the whole list. Every row reads identically to a
/// full rebuild (the SVI loop asserts this in Debug).
void UpdateClusterActivityRows(const Matrix& phi, std::span<const ItemId> items,
                               ClusterActivity& out);

/// True when `lhs` and `rhs` hold identical lists row by row (clusters and
/// weights), whatever their slot layouts — the incremental-vs-rebuilt check.
bool ClusterActivityEquals(const ClusterActivity& lhs, const ClusterActivity& rhs);

/// \name MAP kernels (one disjoint row each).
/// @{

/// Eq. 2: recomputes κ row `u` from the given answers of worker `u`.
/// `activity` (non-null, current with ϕ) supplies the active clusters of
/// each answered item.
void UpdateWorkerResponsibility(CpaModel& model, const AnswerView& view, WorkerId u,
                                std::span<const std::uint32_t> indices,
                                const ClusterActivity* activity);

/// Eq. 3 (+ optional answer evidence): recomputes ϕ row `i` from the answers
/// of item `i` and the item's label evidence ỹ_i.
void UpdateItemResponsibility(CpaModel& model, const AnswerView& view, ItemId i,
                              std::span<const std::uint32_t> indices);

/// The evidence-only ϕ row update (Eq. 3 without the answer term): the SVI
/// local phase for re-seen items and the global-refresh soft update.
void UpdateItemResponsibilityFromEvidence(CpaModel& model, ItemId i);

/// Adds the label-evidence term of the ϕ update onto `scores` (length T),
/// scaled by the item's pseudo-observation weight. Uses the label-major
/// `elog_theta_delta_t` cache; no-op when the item carries no evidence.
void AddEvidenceTerm(const CpaModel& model, ItemId i, std::span<double> scores);

/// @}

/// \name Label-evidence accumulation (`LabelEvidence`, cpa_options.h).
/// @{

/// Soft-Jaccard agreement of one answer against an item's evidence:
/// J = Σ_{c∈x} ỹ_c / (|x| + Σ_c ỹ_c − Σ_{c∈x} ỹ_c). 0 when the denominator
/// vanishes.
double SoftJaccardAgreement(std::span<const LabelId> labels,
                            std::span<const std::pair<LabelId, double>> evidence);

/// Rebuilds item `i`'s evidence as the worker-weighted mean answer
/// indicator over `indices` (the frequency-style strategies and the SVI
/// consensus). Clears the evidence first; leaves it empty when `indices`
/// is empty or all weights vanish. `configured_scale` <= 0 scales the
/// pseudo-observation multiplicity by the answer count (cpa_options.h).
/// `dense_scratch` must hold `num_labels` doubles.
void AccumulateLabelEvidence(CpaModel& model, const AnswerView& view, ItemId i,
                             std::span<const std::uint32_t> indices,
                             std::span<const double> worker_weight,
                             double configured_scale,
                             std::span<double> dense_scratch);

/// Per-worker reliability weights for kReliabilityWeighted: mean
/// soft-Jaccard agreement with the current consensus ỹ, shrunk toward the
/// worker's community mean and sharpened (cpa_options.h). All ones on the
/// bootstrap sweep (no consensus yet). Parallel over workers.
std::vector<double> ComputeWorkerReliability(const CpaModel& model,
                                             const AnswerView& view,
                                             const SweepScheduler& scheduler);

/// Rebuilds ỹ for every item according to the configured strategy
/// (`observed_truth` overrides per item when provided; `self_training`
/// entries, when non-null, supply the current hard predictions). Parallel
/// over items.
void UpdateLabelEvidence(CpaModel& model, const AnswerView& view,
                         const std::vector<LabelSet>* observed_truth,
                         const std::vector<LabelSet>* self_training_labels,
                         const SweepScheduler& scheduler);

/// @}

/// \name REDUCE kernels (global parameters; deterministic partial merges).
/// @{

/// Eqs. 4/5: stick Beta parameters from responsibility column masses.
void UpdateSticks(Matrix& sticks, const Matrix& responsibilities,
                  double concentration, const SweepScheduler& scheduler);

/// Eq. 6: λ from scratch over every answer of the view.
void UpdateLambda(CpaModel& model, const AnswerView& view,
                  const ClusterActivity& activity, const SweepScheduler& scheduler);

/// Eq. 7: ζ from scratch over the current label evidence.
void UpdateZeta(CpaModel& model, const ClusterActivity& activity,
                const SweepScheduler& scheduler);

/// Beta-Bernoulli label channel (θ_tc posteriors feeding the ϕ evidence
/// term, marginal label scores, and the kBernoulliProfile prediction mode)
/// from ϕ and ỹ.
void UpdateThetaChannel(CpaModel& model, const ClusterActivity& activity,
                        const SweepScheduler& scheduler);

/// @}

/// \name Cluster seeding (label-aligned symmetry breaking).
/// @{

/// The majority-consensus label set of an item's current evidence
/// (weights ≥ 0.5, falling back to the strongest single label); empty when
/// the item has no evidence.
LabelSet ConsensusFromEvidence(const CpaModel& model, ItemId item);

/// Seeds one ϕ row one-hot on `cluster`.
void WriteSeedRow(CpaModel& model, ItemId item, std::size_t cluster);

/// Initialises ϕ rows so items with identical majority-consensus label
/// sets start in the same cluster, with clusters assigned in consensus-
/// frequency order (matched to the size-biased stick-breaking geometry).
void SeedClustersFromConsensus(CpaModel& model);

/// @}

}  // namespace cpa::sweep

#endif  // CPA_CORE_SWEEP_SWEEP_KERNELS_H_
