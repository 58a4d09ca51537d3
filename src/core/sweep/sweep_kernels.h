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

  /// The entries of row `item` at or above the threshold, ascending in t:
  /// valid until row `item` is written or this thread gathers another row.
  PhiRows::Entries Of(ItemId item) const { return phi->AtLeast(item, threshold); }

  /// Calls `fn(t, weight)` for every entry of row `item` at or above the
  /// threshold, ascending in t. `fn` must not read the same store's rows
  /// meanwhile (a gathered row lives in thread scratch).
  template <typename Fn>
  void ForEach(ItemId item, Fn&& fn) const {
    const PhiRows::Entries active = Of(item);
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
/// item; each answer adds its term for all M communities at once through
/// `answer_community_scores` over the label-major `elog_psi` table.
void UpdateWorkerResponsibility(CpaModel& model, const AnswerView& view, WorkerId u,
                                std::span<const std::uint32_t> indices,
                                const ClusterActivity* activity);

/// Eq. 3 (+ optional answer evidence): recomputes ϕ row `i` from the answers
/// of item `i` and the item's label evidence ỹ_i. The T scores live in the
/// calling thread's scratch (callers shard with or without an arena). With
/// `phi_answer_term` off (the default) this is
/// `UpdateItemResponsibilityFromEvidence`; with it on, the answer term is
/// added to the scores and the floored softmax goes through the dense row.
void UpdateItemResponsibility(CpaModel& model, const AnswerView& view, ItemId i,
                              std::span<const std::uint32_t> indices);

/// The evidence-only ϕ row update (Eq. 3 without the answer term): the SVI
/// local phase for re-seen items and the global-refresh soft update. One
/// `evidence_scores` pass builds the scores and their max, and
/// `softmax_floored_pairs` hands the surviving pairs to
/// `PhiRows::AssignPairs` (simd.h, "Fused ϕ row kernels").
void UpdateItemResponsibilityFromEvidence(CpaModel& model, ItemId i);

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

/// The reliability weighting of both learners: each scored worker u
/// (`scores[u] >= 0`) gets `max((scores[u] / best)^sharpness,
/// kReliabilityFloor)`, `best` being the largest score. Relative weights
/// keep the honest/spammer contrast when heavy spam makes every absolute
/// agreement low. Writes nothing when `best <= 1e-9`.
void WeighRelativeReliability(std::span<const double> scores, double sharpness,
                              std::span<double> weights);

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

/// Eqs. 4/5 (and 11/12) from given column masses n_k: stick k gets
/// (1 + n_k, concentration + Σ_{l>k} n_l). `sticks` has K − 1 rows for K
/// masses.
void SticksFromMass(Matrix& sticks, std::span<const double> mass,
                    double concentration);

/// Eq. 6: λ from scratch over every answer of the view. The partials are
/// reduced in λ's label-major layout (`answer_lambda_add`), and the root
/// is added onto the prior in one `simd::Accumulate`.
void UpdateLambda(CpaModel& model, const AnswerView& view,
                  const ClusterActivity& activity, const SweepScheduler& scheduler);

/// Eq. 7: ζ from scratch over the current label evidence.
void UpdateZeta(CpaModel& model, const ClusterActivity& activity,
                const SweepScheduler& scheduler);

/// Beta-Bernoulli label channel (θ_tc posteriors feeding the ϕ evidence
/// term and, through their means, the marginal label scores prediction
/// thresholds) from ϕ and ỹ.
void UpdateThetaChannel(CpaModel& model, const ClusterActivity& activity,
                        const SweepScheduler& scheduler);

/// `UpdateZeta` and `UpdateThetaChannel` from one pass over the items: ζ's
/// statistic Σ_i w_i ϕ_it ỹ_ic is θ's a_tc − a0, reduced in the same blocks
/// and merge tree, so both come out bit for bit as the two calls give them.
void UpdateZetaAndThetaChannel(CpaModel& model, const ClusterActivity& activity,
                               const SweepScheduler& scheduler);

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

/// Items per shard of the whole-store item passes (the consensus seed
/// writes here, the online refresh's evidence pass): the Fig 7 stream's
/// 10^4 items split over the pool, while sessions of fewer than 2 × 1024
/// items run them inline, without a pool hand-off.
inline constexpr std::size_t kItemPassGrain = 1024;

/// Symmetry breaking for the item clusters: seeds every evidenced item's ϕ
/// row one-hot (`WriteSeedRow`), and items with identical majority-consensus
/// label sets share a cluster. Clusters are assigned in consensus-frequency
/// order (matched to the size-biased stick-breaking geometry), and sets
/// beyond the truncation join their best Jaccard match. Items without
/// evidence keep their rows, and T ≤ 1 writes none. The row writes are
/// sharded by item over `scheduler`. Returns the largest row change over
/// the rows written (0 when none), the same at any thread count.
double SeedClustersFromConsensus(CpaModel& model, const SweepScheduler& scheduler);

/// @}

}  // namespace cpa::sweep

#endif  // CPA_CORE_SWEEP_SWEEP_KERNELS_H_
