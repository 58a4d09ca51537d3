#ifndef CPA_CORE_PREDICTION_H_
#define CPA_CORE_PREDICTION_H_

/// \file prediction.h
/// \brief Label-set instantiation from the fitted posterior (§3.4).
///
/// For each item, the cluster posterior ϕ is re-weighted by the likelihood
/// of the item's answers under each cluster (mixing over communities with
/// κ — the `Π_u Σ_m κ_um p(x_ui | ψ̂_tm)` factor of the paper's prediction
/// formula, `ItemClusterLogWeights`), the weights w̃ are normalised, and the
/// per-cluster Bernoulli profiles are mixed into the marginal label scores
/// `q_ic = Σ_t w̃_t θ̂_tc`. The label set is `{c : q_ic ≥ 0.5}`, the exact
/// MAP of the mixed profile. Co-occurrence completion (R3) enters through
/// the profiles: a label the item's answers miss is predicted when its
/// clusters assert it.
///
/// The paper instead searches label sets greedily under the multinomial
/// profile φ (§3.4), and its No L variant enumerates all 2^C subsets
/// (§5.4). This reproduction implements neither search, nor the
/// label-set-size prior the greedy needs: every variant (No L included)
/// predicts by the threshold above (docs/BENCHMARKS.md "Design choices").
///
/// Execution model (Eqs. 4–7 are the offline wall-clock tail, so this
/// phase runs like a sweep): items are sharded through the
/// `SweepScheduler` MAP phase, a `ClusterActivity` view of ϕ at the
/// prediction prune threshold supplies each item's live clusters, and all
/// per-item buffers (cluster ids, log-weights, softmax weights, community
/// terms) are checked out of the shard's lane `ScratchArena` once and
/// reused across the shard's items. Results are bit-identical for any
/// thread count and for arena- vs heap-backed scratch.
///
/// The paper's ψ^MAP/φ^MAP point estimates are degenerate for Dirichlet
/// parameters below 1 (mode on the simplex boundary), so posterior means
/// are used instead — the standard plug-in.

#include <cstdint>
#include <span>
#include <vector>

#include "core/cpa_model.h"
#include "core/sweep/sweep_kernels.h"
#include "core/sweep/sweep_scheduler.h"
#include "data/answer_matrix.h"
#include "data/label_set.h"
#include "util/arena.h"
#include "util/matrix.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cpa {

/// \brief Instantiated labels plus marginal per-label scores.
struct CpaPrediction {
  std::vector<LabelSet> labels;

  /// Marginal label probabilities q_ic = Σ_t w̃_t θ_tc (I × C).
  Matrix scores;
};

/// \brief Predicts label sets for every item (parallel over items).
///
/// Requires a fitted model (Bernoulli profile refreshed — `FitCpa` leaves
/// the model in that state).
Result<CpaPrediction> PredictLabels(const CpaModel& model, const AnswerMatrix& answers,
                                    Executor* pool = nullptr);

/// Same, scheduled on a caller-owned `SweepScheduler` — the fit loops and
/// the online learner pass their own scheduler so prediction reuses the
/// already-warm lane arenas instead of building a fresh scheduler per call.
Result<CpaPrediction> PredictLabels(const CpaModel& model, const AnswerMatrix& answers,
                                    const SweepScheduler& scheduler);

/// Same, reading item i's answers as the flat indices `answers_by_item[i]`
/// into `view`, in that order — the online learner's seen answers, with no
/// copy of them. Equals predicting from the matrix of exactly those
/// answers, added item by item in that order. Lists that do not cover the
/// model's items, or an index outside `view`, are refused.
Result<CpaPrediction> PredictLabels(
    const CpaModel& model, const AnswerView& view,
    std::span<const std::vector<std::uint32_t>> answers_by_item,
    const SweepScheduler& scheduler);

namespace internal {

/// Clusters whose normalised weight falls below this are pruned from the
/// per-item scoring (identity-ϕ variants leave exactly one active cluster).
inline constexpr double kClusterPrune = 1e-10;

/// Precomputed log posterior-mean parameters shared across items.
struct PredictionTables {
  /// ln ψ̂_tmc in λ's label-major layout (cpa_model.h): T rows of C·M, the
  /// M communities of label c at column c·M.
  Matrix log_psi_mean;
};

/// \brief Per-shard prediction buffers, checked out once and reused across
/// the shard's items.
///
/// The spans (cluster- and community-shaped) live in a `ScratchArena` lane.
struct PredictionScratch {
  /// Buffers are checkouts of `arena` and live until the arena frame
  /// closes.
  PredictionScratch(ScratchArena& arena, std::size_t num_clusters,
                    std::size_t num_communities);

  std::span<double> log_weights;            ///< T: reweighted cluster log-posterior
  std::span<double> weights;                ///< ≤T: softmax weights of the active ids
  std::span<double> member_terms;           ///< M: per-community log-lik terms
  std::span<std::size_t> live_communities;  ///< ≤M: ids with κ_um > 0
  std::span<double> live_log_kappa;         ///< matching ln κ_um
  std::span<std::size_t> active_ids;        ///< ≤T: surviving cluster ids
  std::size_t active_count = 0;             ///< live prefix of `active_ids`
};

/// Builds the tables from a fitted model.
PredictionTables BuildPredictionTables(const CpaModel& model);

/// Posterior cluster log-weights of one item, answer-likelihood-reweighted
/// (unnormalised), written into `scratch.log_weights`; the item's clusters
/// above `kClusterPrune` are left (ascending) in the active prefix of
/// `scratch.active_ids`, and every other entry is −inf. `activity` (a view
/// at `kClusterPrune`) supplies those clusters. Per answer, only the
/// worker's live communities (κ_um > 0) are visited: with one, the
/// community log-sum-exp is that community's term exactly.
void ItemClusterLogWeights(const CpaModel& model, const PredictionTables& tables,
                           const AnswerMatrix& answers, ItemId item,
                           const sweep::ClusterActivity& activity,
                           PredictionScratch& scratch);

/// Predicts one item into row `item` of `prediction` (sized by the
/// caller): `ItemClusterLogWeights`, the softmax over the active clusters,
/// the mixed Bernoulli scores, then the 0.5 threshold. An item without
/// answers keeps an empty set and a zero score row. Every scratch write
/// overwrites its prefix, so one scratch serves any sequence of items.
void PredictOneItem(const CpaModel& model, const PredictionTables& tables,
                    const AnswerMatrix& answers,
                    const sweep::ClusterActivity& activity, ItemId item,
                    PredictionScratch& scratch, CpaPrediction& prediction);

}  // namespace internal
}  // namespace cpa

#endif  // CPA_CORE_PREDICTION_H_
