#ifndef CPA_CORE_PREDICTION_H_
#define CPA_CORE_PREDICTION_H_

/// \file prediction.h
/// \brief Label-set instantiation from the fitted posterior (§3.4).
///
/// For each item, the cluster posterior ϕ is re-weighted by the likelihood
/// of the item's answers under each cluster (mixing over communities with
/// κ — the `Π_u Σ_m κ_um p(x_ui | ψ̂_tm)` factor of the paper's prediction
/// formula), then the label set is instantiated:
///
/// - `kMultinomialSizePrior`: greedy ascent on
///   `ln Σ_t w̃_t · SizePrior_t(|y|) · |y|! · Π_{c∈y} φ̂_tc`
///   (the paper's greedy, made non-degenerate by the per-cluster size
///   prior). Candidate labels are the item's answered
///   labels plus top-profile labels of its likely clusters, which is how
///   co-occurrence completion (R3) enters without scanning all C labels.
/// - `kBernoulliProfile`: exact thresholding of the mixed Bernoulli
///   profile `q_ic = Σ_t w̃_t θ_tc`.
///
/// An exhaustive bounded-subset search (the paper's 2^C instantiation,
/// §5.4) is provided for the No L variant and as a test oracle for the
/// greedy.
///
/// Execution model (Eqs. 4–7 are the offline wall-clock tail, so this
/// phase runs like a sweep): items are sharded through the
/// `SweepScheduler` MAP phase, a `ClusterActivity` view of ϕ at the
/// prediction prune threshold supplies each item's live clusters, and all
/// per-item buffers (`ActiveClusters` ids/log-weights, score terms,
/// accumulators) are checked out of the shard's lane `ScratchArena` once
/// and reused across the shard's items. Results are bit-identical for any
/// thread count and for arena- vs heap-backed scratch.
///
/// The paper's ψ^MAP/φ^MAP point estimates are degenerate for Dirichlet
/// parameters below 1 (mode on the simplex boundary), so posterior means
/// are used instead — the standard plug-in.

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
/// Requires a fitted model (size prior and Bernoulli profile refreshed —
/// `FitCpa` leaves the model in that state).
Result<CpaPrediction> PredictLabels(const CpaModel& model, const AnswerMatrix& answers,
                                    Executor* pool = nullptr);

/// Same, scheduled on a caller-owned `SweepScheduler` — the fit loops and
/// the online learner pass their own scheduler so prediction reuses the
/// already-warm lane arenas instead of building a fresh scheduler per call.
Result<CpaPrediction> PredictLabels(const CpaModel& model, const AnswerMatrix& answers,
                                    const SweepScheduler& scheduler);

namespace internal {

/// Clusters whose normalised weight falls below this are pruned from the
/// per-item scoring (identity-ϕ variants leave exactly one active cluster).
inline constexpr double kClusterPrune = 1e-10;

/// Precomputed log posterior-mean parameters shared across items.
struct PredictionTables {
  std::vector<Matrix> log_psi_mean;  ///< T × (M × C)
  Matrix log_phi_mean;               ///< T × C
  Matrix log_size_prior;             ///< T × (S+1)
  std::vector<std::vector<LabelId>> top_labels;  ///< per cluster, profile-sorted
};

/// \brief Per-shard prediction buffers, checked out once and reused across
/// the shard's items.
///
/// The fixed-width spans (cluster- and community-shaped) live in a
/// `ScratchArena` lane; the variable-width members are plain vectors whose
/// capacity survives across items.
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
  std::span<double> active_log_weights;     ///< matching normalised log-weights
  std::span<double> acc;                    ///< ≤T: per-cluster partial products
  std::span<double> trial;                  ///< ≤T: greedy candidate trial row
  std::span<double> terms;                  ///< ≤T: SetScore mixture terms
  std::size_t active_count = 0;             ///< live prefix of the active spans

  std::vector<LabelId> candidates;
  std::vector<std::size_t> cluster_order;
  std::vector<LabelId> subset;       ///< exhaustive DFS stack
  std::vector<LabelId> best_subset;  ///< exhaustive best-so-far
  std::vector<char> used;            ///< greedy candidate marks
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

/// Greedy MAP instantiation over `candidates` given cluster log-weights.
LabelSet GreedyInstantiate(const PredictionTables& tables,
                           std::span<const double> cluster_log_weights,
                           std::span<const LabelId> candidates,
                           PredictionScratch& scratch);

/// Bounded exhaustive instantiation (all subsets of `candidates` up to
/// `max_size`); the oracle for GreedyInstantiate and the No L search.
LabelSet ExhaustiveInstantiate(const PredictionTables& tables,
                               std::span<const double> cluster_log_weights,
                               std::span<const LabelId> candidates,
                               std::size_t max_size, PredictionScratch& scratch);

/// Candidate labels for an item (answered labels + top cluster labels),
/// deduplicated and sorted into `scratch.candidates`.
void CollectCandidates(const PredictionTables& tables, const AnswerMatrix& answers,
                       ItemId item, std::span<const double> cluster_log_weights,
                       PredictionScratch& scratch);

}  // namespace internal
}  // namespace cpa

#endif  // CPA_CORE_PREDICTION_H_
