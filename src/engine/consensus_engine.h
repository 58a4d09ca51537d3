#ifndef CPA_ENGINE_CONSENSUS_ENGINE_H_
#define CPA_ENGINE_CONSENSUS_ENGINE_H_

/// \file consensus_engine.h
/// \brief The streaming inference session shared by every consensus method.
///
/// One `ConsensusEngine` instance is one session over one answer stream:
///
/// ```cpp
///   auto engine = EngineRegistry::Global().Open(config);   // Open
///   engine->Observe({&answers, plan.batches[b]});          // Observe*
///   auto snapshot = engine->Snapshot();                    // any time
///   auto final = engine->Finalize();                       // once, at end
/// ```
///
/// Offline methods (MV, EM, cBCC, CPA variants) run behind one
/// accumulate-then-refit adapter (`offline_engine.h`): `Snapshot` refits
/// on everything observed so far, so mid-stream snapshots are exactly the
/// "offline re-run on the data so far" reference of Fig 6.
/// `CpaOnline` (Algorithm 2) plugs in natively via `CpaSviEngine` and never
/// refits. Either way callers see one lifecycle, which is what lets the
/// benches, examples and the eval harness switch methods by string name.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/aggregator.h"
#include "data/answer_matrix.h"
#include "data/label_set.h"
#include "util/matrix.h"
#include "util/status.h"

namespace cpa {

class CheckpointWriter;
class CheckpointReader;

/// \brief One batch of stream answers: flat indices into
/// `answers->answers()`. The matrix is the *stream*: it may hold answers
/// that have not arrived yet — engines only ever read the indices they have
/// been shown (no peeking), and every batch of a session must reference the
/// same matrix object.
struct AnswerBatch {
  const AnswerMatrix* answers = nullptr;
  std::span<const std::size_t> indices;
};

/// \brief Point-in-time view of a session's consensus. Cheap to take
/// between batches: online methods predict from their current state,
/// offline adapters refit only when new answers arrived since the last
/// snapshot.
///
/// Sessions publish snapshots as immutable shared values (`SharedSnapshot`
/// below): once `Snapshot()` hands one out it is never mutated, so any
/// number of readers — poll caches, wire responses, metric scans — hold
/// the same object without copying the predictions.
struct ConsensusSnapshot {
  /// Registry name of the method that produced the snapshot.
  std::string method;

  /// The deterministic assignment `d` so far; items without observed
  /// answers carry empty sets. Empty before the first non-empty batch.
  std::vector<LabelSet> predictions;

  /// Soft per-label scores (I × C); semantics are method specific. May be
  /// empty for methods without soft output.
  Matrix label_scores;

  /// Inference diagnostics of the fit behind this snapshot. For online
  /// methods `iterations` counts batches consumed.
  FitStats fit_stats;

  /// Monotone session counters at snapshot time.
  std::size_t batches_seen = 0;
  std::size_t answers_seen = 0;

  /// ω_b of the most recent SVI step; 0 for offline methods.
  double learning_rate = 0.0;

  /// True for the snapshot returned by `Finalize()`.
  bool finalized = false;
};

/// \brief The immutable published form of a snapshot. Copying the handle
/// is a refcount bump; the snapshot body is never copied or mutated after
/// publication.
using SharedSnapshot = std::shared_ptr<const ConsensusSnapshot>;

/// \brief Interface of a streaming consensus session.
///
/// The base class owns the lifecycle invariants — one stream matrix per
/// session, monotone counters, no observation after `Finalize()` — so
/// concrete engines only implement `OnObserve` / `OnSnapshot`.
class ConsensusEngine {
 public:
  virtual ~ConsensusEngine() = default;

  ConsensusEngine(const ConsensusEngine&) = delete;
  ConsensusEngine& operator=(const ConsensusEngine&) = delete;

  /// Registry name of the method ("MV", "CPA-SVI", ...).
  std::string_view name() const { return name_; }

  /// Consumes one batch. Empty batches are a no-op (counters unchanged).
  /// Fails after `Finalize()`, on a null or foreign stream matrix, and on
  /// out-of-range indices.
  Status Observe(const AnswerBatch& batch);

  /// Current consensus as an immutable shared value. Before any answer
  /// arrived this returns an empty snapshot rather than failing, so pollers
  /// need no special bootstrap. Snapshots are cached at the base level:
  /// repeated calls with no intervening (non-empty) `Observe` return the
  /// same shared object — no rebuild, no copy.
  Result<SharedSnapshot> Snapshot();

  /// Ends the session and returns the final consensus. Idempotent: repeated
  /// calls return the same shared snapshot; `Observe` fails afterwards.
  Result<SharedSnapshot> Finalize();

  bool finalized() const { return finalized_; }
  std::size_t batches_seen() const { return batches_seen_; }
  std::size_t answers_seen() const { return answers_seen_; }

  /// Serializes the full engine state into an opaque versioned blob
  /// (engine/checkpoint.h). Restoring the blob into a freshly opened engine
  /// of the same method and continuing the stream is bit-identical to never
  /// having stopped. Engines that don't implement the hooks return
  /// `kUnimplemented`.
  Result<std::string> SaveState() const;

  /// Restores a `SaveState` blob into this engine. The engine must be
  /// freshly opened (nothing observed, not finalized); `stream` is the
  /// session's rebuilt answer stream and must be non-null iff the saved
  /// engine had bound one. The engine does not replay `Observe` — sufficient
  /// statistics come from the blob — so `stream` must already hold the
  /// answers the saved engine had seen, at the same indices.
  Status RestoreState(std::string_view state, const AnswerMatrix* stream);

 protected:
  explicit ConsensusEngine(std::string name) : name_(std::move(name)) {}

  /// Consumes validated, non-empty batch indices of `answers`.
  virtual Status OnObserve(const AnswerMatrix& answers,
                           std::span<const std::size_t> indices) = 0;

  /// Builds the snapshot body (predictions / scores / stats / rate); the
  /// base class stamps method name, counters and the finalized flag.
  /// Called only once a stream is bound — i.e. after at least one
  /// `Observe` call, which may have carried an empty batch, so `OnObserve`
  /// may not have run yet. Implementations must tolerate zero observed
  /// answers. The base class publishes the result and serves it until the
  /// counters or the stream binding move, so implementations keep no
  /// snapshot cache of their own.
  virtual Result<ConsensusSnapshot> OnSnapshot(const AnswerMatrix& stream) = 0;

  /// \name Checkpoint hooks
  ///
  /// `SaveState`/`RestoreState` frame the blob (magic, version, method
  /// name, base counters, cached/final snapshots) and delegate the
  /// method-specific sufficient statistics to these hooks. The default
  /// implementations refuse, so methods opt in explicitly.
  /// @{
  virtual Status OnSaveState(CheckpointWriter& writer) const;
  virtual Status OnRestoreState(CheckpointReader& reader);
  /// @}

 private:
  std::string name_;
  const AnswerMatrix* stream_ = nullptr;
  std::size_t batches_seen_ = 0;
  std::size_t answers_seen_ = 0;
  bool finalized_ = false;

  /// Base-level snapshot cache: valid while the session counters equal
  /// `cached_answers_`/`cached_batches_` (counters only move on non-empty
  /// Observe, and engine state only changes there too) and the stream
  /// binding is unchanged (an empty first batch binds without counting).
  SharedSnapshot cached_;
  std::size_t cached_batches_ = 0;
  std::size_t cached_answers_ = 0;
  const AnswerMatrix* cached_stream_ = nullptr;
  SharedSnapshot final_snapshot_;
};

/// Feeds every answer of `answers` to `engine` as one batch — the one-shot
/// (non-streaming) use of a session, as in the engine overload of
/// `RunExperiment`.
Status ObserveAll(ConsensusEngine& engine, const AnswerMatrix& answers);

}  // namespace cpa

#endif  // CPA_ENGINE_CONSENSUS_ENGINE_H_
