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
/// SoA labels); the hot worker/λ/ζ/θ loops additionally take a
/// `ClusterActivity` — the threshold view of ϕ that yields an item's
/// clusters with non-negligible mass — so an answer touches its item's few
/// active clusters instead of scanning a T-wide ϕ row.

#include <cstddef>
#include <span>
#include <vector>

#include "core/cpa_model.h"
#include "core/sweep/answer_view.h"
#include "core/sweep/simd.h"
#include "core/sweep/sweep_scheduler.h"
#include "data/label_set.h"
#include "util/matrix.h"

namespace cpa::sweep {

/// Responsibilities below this mass are skipped in the accumulation loops;
/// rows concentrate quickly, so this saves most of the T×M work. It is the
/// weight at which the ϕ row store splits a row's pairs, so the loops read
/// a row's skip-free run in place (`PhiRows::AtLeast`).
inline constexpr double kSkipMass = kHeavyWeight;

/// Softmax underflow floor of the responsibility rows (see
/// `SoftmaxInPlace(span, floor)`): dropped entries carry < 1e-12 mass,
/// four orders of magnitude below `kSkipMass`.
inline constexpr double kSoftmaxFloorNats = 27.6;

/// \brief The clusters of each item carrying at least `threshold` of ϕ: a
/// non-owning threshold view of the ϕ row store.
///
/// It holds no per-item state, so it is current with ϕ by construction:
/// a kernel that reads it after any ϕ write sees the written rows. Row i
/// reads as `PhiRows::AtLeast(i, threshold)`: at `kSkipMass` a written
/// sparse row's first run in place, otherwise the row's nonzeros at or
/// above the threshold gathered in ascending cluster order. That is
/// exactly the (cluster, weight) sequence a T-wide scan of the dense row
/// keeps at the same threshold, because the threshold is > 0 and so never
/// admits a zero the store dropped (ARCHITECTURE.md §3d).
struct ClusterActivity {
  const PhiRows* phi = nullptr;
  double threshold = kSkipMass;  ///< > 0

  /// Calls `fn(t, weight)` for every entry of row `item` at or above the
  /// threshold, ascending in t. `fn` must not read the same store's rows
  /// meanwhile (a gathered row lives in thread scratch).
  template <typename Fn>
  void ForEach(ItemId item, Fn&& fn) const {
    const PhiRows::Entries active = phi->AtLeast(item, threshold);
    for (std::size_t k = 0; k < active.clusters.size(); ++k) {
      fn(static_cast<std::size_t>(active.clusters[k]), active.weights[k]);
    }
  }
};

/// Binds `out` to `phi` at `threshold` (> 0). The scheduler is unused: the
/// view has nothing to build. The library constructs the view directly;
/// this call form stays for `perfbench/src/layers.cc`, which names it.
void BuildClusterActivity(const PhiRows& phi, const SweepScheduler& scheduler,
                          ClusterActivity& out, double threshold = kSkipMass);

/// \name MAP kernels (one disjoint row each).
/// @{

/// Eq. 2: recomputes κ row `u` from the given answers of worker `u`.
/// `activity` (non-null) supplies the active clusters of each answered
/// item.
void UpdateWorkerResponsibility(CpaModel& model, const AnswerView& view, WorkerId u,
                                std::span<const std::uint32_t> indices,
                                const ClusterActivity* activity);

/// Eq. 3 (+ optional answer evidence): recomputes ϕ row `i` from the answers
/// of item `i` and the item's label evidence ỹ_i. The T scores live in the
/// calling thread's scratch (callers shard with or without an arena); the
/// floored softmax result is stored by its nonzero entries.
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

/// Eqs. 4/5: stick Beta parameters from responsibility column masses. The
/// κ form adds dense rows; the ϕ form adds each row's nonzeros
/// (`PhiRows::AddRows`). Both keep the `kRowGrain` blocks and merge tree,
/// and every column receives its rows in row order, so the two agree bit
/// for bit on equal responsibilities.
void UpdateSticks(Matrix& sticks, const Matrix& responsibilities,
                  double concentration, const SweepScheduler& scheduler);
void UpdateSticks(Matrix& sticks, const PhiRows& phi, double concentration,
                  const SweepScheduler& scheduler);

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

/// `UpdateZeta` and `UpdateThetaChannel` from one pass over the items: ζ's
/// statistic Σ_i w_i ϕ_it ỹ_ic is θ's a_tc − a0, reduced in the same blocks
/// and merge tree, so both come out bit for bit as the two calls give them.
void UpdateZetaAndThetaChannel(CpaModel& model, const ClusterActivity& activity,
                               const SweepScheduler& scheduler);

/// @}

/// \name Label-set-size counts (the prediction size prior).
/// @{

/// Adds ϕ-weighted answer-set-size counts onto `counts`, which is
/// size-major ((S+1) × T: row n holds the answers of size n): for every
/// answer index j of `indices`, in order, counts(|x_j|, t) += ϕ(item_j, t)
/// through `PhiRows::AddRows` over the item's one row. Each count receives
/// its additions in answer order, and a skipped zero would only have added
/// +0.0, so the bits match a dense row add.
template <typename Indices>
void AccumulateSizeCounts(const PhiRows& phi, const AnswerView& view,
                          const Indices& indices, Matrix& counts) {
  for (const std::size_t j : indices) {
    const ItemId item = view.item(j);
    phi.AddRows(item, item + 1, counts.Row(view.label_count(j)));
  }
}

/// @}

/// \name Cluster seeding (label-aligned symmetry breaking).
/// @{

/// The majority-consensus label set of an item's current evidence
/// (weights ≥ 0.5, falling back to the strongest single label); empty when
/// the item has no evidence.
LabelSet ConsensusFromEvidence(const CpaModel& model, ItemId item);

/// Seeds one ϕ row one-hot on `cluster`. Returns the row's change, the
/// largest |new − old| entry over the union of the old and new supports
/// (what `MaxAbsDiff` of the dense rows gives), so the offline fit's
/// convergence check needs no ϕ snapshot.
double WriteSeedRow(CpaModel& model, ItemId item, std::size_t cluster);

/// Initialises ϕ rows so items with identical majority-consensus label
/// sets start in the same cluster, with clusters assigned in consensus-
/// frequency order (matched to the size-biased stick-breaking geometry).
/// Returns the largest row change over the rows it wrote (0 when none).
double SeedClustersFromConsensus(CpaModel& model);

/// @}

}  // namespace cpa::sweep

#endif  // CPA_CORE_SWEEP_SWEEP_KERNELS_H_
