#ifndef CPA_CORE_SVI_H_
#define CPA_CORE_SVI_H_

/// \file svi.h
/// \brief Stochastic variational inference for the CPA model — the online
/// learning of §4.1 (Algorithm 2) with the MapReduce-style parallel local
/// phase of §4.2 (Algorithm 3).
///
/// Answers arrive as batches of worker answers. Per batch `b`:
/// (MAP phase, parallel) κ rows of the batch workers are recomputed from
/// their new answers, and re-seen batch items get an exact local ϕ update
/// over their accumulated answers, in place of the paper's natural-gradient
/// step in the log-odds µ (Eqs. 15–17); (REDUCE phase) λ accumulates the
/// batch's sufficient statistics and ρ, υ, ζ, θ are recomputed exactly over
/// everything seen, in place of the paper's steps scaled by a uniform `U`
/// factor (the SVI estimator of BENCHMARKS.md "Design choices"). The
/// learning rate `ω_b = (1+b)^{−r}` is computed and reported
/// (`last_learning_rate`), but no update reads it.
///
/// The sweep bodies (Eq. 2 κ rows, evidence-only ϕ rows, label-evidence
/// accumulation) are the shared kernels of `core/sweep/sweep_kernels.h` —
/// the same code the offline coordinate-ascent loop of vi.h runs — applied
/// to the answers seen so far through a flat `AnswerView`
/// (`core/sweep/answer_view.h`) of the stream matrix.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include <memory>

#include "core/cpa_model.h"
#include "core/prediction.h"
#include "core/sweep/answer_view.h"
#include "core/sweep/sweep_scheduler.h"
#include "data/answer_matrix.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cpa {

/// \brief Knobs of the online learner.
struct SviOptions {
  /// Workers per batch (callers typically build plans with
  /// `MakeWorkerBatches(answers, workers_per_batch, rng)`).
  std::size_t workers_per_batch = 25;

  /// Forgetting rate r ∈ (0.5, 1]; the paper finds r ∈ [0.85, 0.9] best
  /// and uses 0.875 in its scalability experiments. Here it only sets the
  /// reported ω_b (see the file comment).
  double forgetting_rate = 0.875;

  /// Reliability ↔ consensus ↔ cluster reinforcement rounds per batch (the
  /// offline fit gets the equivalent reinforcement across its sweeps).
  std::size_t reinforcement_rounds = 1;

  Status Validate() const;
};

/// \brief Incremental CPA learner: consume batches, predict any time.
class CpaOnline {
 public:
  /// Creates the learner over fixed dimensions (items/workers may be upper
  /// bounds; unseen entities simply keep their initial state).
  static Result<CpaOnline> Create(std::size_t num_items, std::size_t num_workers,
                                  std::size_t num_labels, const CpaOptions& options,
                                  const SviOptions& svi_options,
                                  Executor* pool = nullptr);

  /// Consumes one batch: `batch` holds flat indices into
  /// `answers.answers()`. Only those answers are read — the learner never
  /// peeks at data outside the batches it has been shown. (The flat
  /// `AnswerView` layout cache spans the whole stream matrix, but carries
  /// only the caller's own data re-ordered, no inference state.)
  Status ObserveBatch(const AnswerMatrix& answers,
                      std::span<const std::size_t> batch);

  /// Predicts labels from the current model state. `answers` must be the
  /// same stream matrix passed to `ObserveBatch`; the learner reads only
  /// the answers whose batches it has been shown. Before instantiating, it
  /// refreshes consensus evidence, cluster assignments and the label
  /// channel over everything seen — batch ingestion only updates the
  /// entities a batch touches, so mid-stream items would otherwise predict
  /// from stale consensus.
  Result<CpaPrediction> Predict(const AnswerMatrix& answers);

  /// The current model (expectations are fresh after every batch).
  const CpaModel& model() const { return model_; }

  std::size_t batches_seen() const { return batch_count_; }
  std::size_t answers_seen() const { return answers_seen_; }

  /// ω_b of the most recent batch (0 before the first batch).
  double last_learning_rate() const { return last_rate_; }

  /// \name Checkpointing (engine/checkpoint.h).
  ///
  /// Serializes the model plus every piece of learner state that feeds
  /// future batches (step counters, seen-sets, cluster seeding, size
  /// counts). The one derived cache, the flat `AnswerView`, is rebuilt
  /// lazily after restore, which is exact: it is a pure function of the
  /// stream.
  /// `RestoreState` requires a freshly `Create`d learner of the same
  /// dimensions; continuing afterwards is bit-identical to never stopping.
  /// A failed restore leaves the learner fresh.
  /// @{
  void SaveState(CheckpointWriter& writer) const;
  Status RestoreState(CheckpointReader& reader);
  /// @}

 private:
  CpaOnline() = default;

  /// Rebuilds the flat view when the stream matrix has grown since the
  /// last batch (the view indexes by flat answer position, so it only ever
  /// needs rebuilding on growth).
  void EnsureView(const AnswerMatrix& answers);

  /// The body of `RestoreState`, run on a default-constructed learner that
  /// holds a copy of the fresh model; may fail with some fields read.
  Status ReadState(CheckpointReader& reader);

  /// Reinforcement pass (reliability → evidence → clusters → θ) over all
  /// seen data; see Predict.
  void GlobalRefresh(const AnswerMatrix& answers);

  CpaModel model_;
  SviOptions svi_options_;
  Executor* pool_ = nullptr;

  /// Session-lifetime scheduler: its lane arenas stay warm across batches,
  /// so steady-state SVI steps (and every snapshot predict) reuse the same
  /// scratch slabs instead of re-allocating per call. Owned by pointer so
  /// the learner stays movable. Retention equals this session's high-water
  /// scratch (bounded by the λ-reduce budget in sweep_kernels.cc) and is
  /// released with the learner — under the server, idle expiry bounds the
  /// fleet-wide total.
  std::unique_ptr<SweepScheduler> scheduler_;

  /// Flat CSR/SoA layout of the stream matrix for the sweep kernels, plus
  /// the identity of the matrix it was built from: a different matrix
  /// object forces a full rebuild (same identity check the engine layer
  /// applies to its stream), so cached labels never go stale.
  AnswerView view_;
  const AnswerMatrix* viewed_stream_ = nullptr;

  std::size_t batch_count_ = 0;
  double last_rate_ = 0.0;
  std::size_t answers_seen_ = 0;
  // Only the v1 checkpoint layout reads these two and `cluster_consensus_`.
  std::size_t workers_seen_ = 0;
  std::size_t items_seen_ = 0;
  std::vector<bool> worker_seen_;
  std::vector<bool> item_seen_;

  // Every answer index observed so far, indexed by item and by worker. The
  // learner never reads outside these (no peeking ahead of the stream),
  // but it does not forget either: evidence and local updates use all
  // answers accumulated for the touched entities.
  std::vector<std::vector<std::uint32_t>> seen_by_item_;
  std::vector<std::vector<std::uint32_t>> seen_by_worker_;

  // Online cluster seeding: distinct consensus sets are allocated cluster
  // indices first-come-first-served (the streaming analogue of the offline
  // frequency-ordered seeding); overflow sets join their best Jaccard
  // match. Items participate only once they carry at least
  // `kMinAnswersToSeed` answers — single-answer "consensus" would squander
  // the allocations on noise.
  static constexpr std::size_t kMinAnswersToSeed = 2;
  std::map<std::string, std::size_t> consensus_cluster_;
  std::vector<LabelSet> cluster_consensus_;
  std::size_t next_cluster_ = 0;
  std::vector<bool> item_seeded_;

  // Undecayed ϕ-weighted answer-set-size counts feeding the size prior,
  // size-major ((S+1) × T, `sweep::AccumulateSizeCounts`); checkpoints
  // store the cluster-major transpose (T rows).
  Matrix size_counts_;
};

}  // namespace cpa

#endif  // CPA_CORE_SVI_H_
