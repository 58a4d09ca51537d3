#include "engine/offline_engine.h"

#include <algorithm>
#include <utility>

#include "engine/checkpoint.h"

namespace cpa {

OfflineEngine::OfflineEngine(std::string name, std::unique_ptr<Aggregator> aggregator,
                             std::size_t num_labels,
                             std::unique_ptr<ThreadPool> owned_pool)
    : ConsensusEngine(std::move(name)),
      num_labels_(num_labels),
      owned_pool_(std::move(owned_pool)),
      aggregator_(std::move(aggregator)) {}

Status OfflineEngine::OnObserve(const AnswerMatrix& answers,
                                std::span<const std::size_t> indices) {
  (void)answers;  // the refit reads the stream; indices are validated
  seen_.insert(seen_.end(), indices.begin(), indices.end());
  return Status::OK();
}

Result<ConsensusSnapshot> OfflineEngine::OnSnapshot(const AnswerMatrix& stream) {
  // The base class only calls here when the session counters or the stream
  // binding moved since the last published snapshot, so every call refits.
  // A session that only saw empty batches still solves once (on the empty
  // sub-matrix), matching a direct Aggregate call on an all-empty matrix.
  //
  // Stream order (and uniqueness — a repeated index would otherwise make
  // the refit sub-matrix reject the duplicate cell) is what makes a
  // full-coverage refit identical to the original matrix. Sorting here,
  // on the refit path, keeps per-batch Observe O(batch).
  std::sort(seen_.begin(), seen_.end());
  seen_.erase(std::unique(seen_.begin(), seen_.end()), seen_.end());
  AggregationResult result;
  if (seen_.size() == stream.num_answers()) {
    // Full coverage: the sub-matrix would be an exact copy — solve on the
    // stream itself and skip the rebuild.
    CPA_ASSIGN_OR_RETURN(result, aggregator_->Aggregate(stream, num_labels_));
  } else {
    const AnswerMatrix accumulated = stream.Subset(seen_);
    CPA_ASSIGN_OR_RETURN(result, aggregator_->Aggregate(accumulated, num_labels_));
  }
  ConsensusSnapshot snapshot;
  snapshot.predictions = std::move(result.predictions);
  snapshot.label_scores = std::move(result.label_scores);
  snapshot.fit_stats = std::move(result.stats);
  return snapshot;
}

// Layout (engine checkpoint version 1): num_labels, seen indices, then the
// retired private refit cache as `fitted`, `dirty` and, when fitted, a
// snapshot. The base class's cache replaced that cache; the two flags are
// still written (as "not fitted, dirty") so blobs keep the version-1 layout
// that older builds restore, and read and discarded on restore.
Status OfflineEngine::OnSaveState(CheckpointWriter& writer) const {
  writer.WriteU64(num_labels_);
  writer.WriteSizes(seen_);
  writer.WriteBool(false);  // fitted
  writer.WriteBool(true);   // dirty
  return Status::OK();
}

Status OfflineEngine::OnRestoreState(CheckpointReader& reader) {
  CPA_ASSIGN_OR_RETURN(const std::size_t labels, reader.ReadSize());
  if (labels != num_labels_) {
    return Status::InvalidArgument(
        "checkpoint num_labels does not match this engine");
  }
  CPA_ASSIGN_OR_RETURN(seen_, reader.ReadSizes());
  CPA_ASSIGN_OR_RETURN(const bool fitted, reader.ReadBool());
  CPA_RETURN_NOT_OK(reader.ReadBool().status());  // dirty
  if (fitted) {
    // An older build's refit cache: a base-level cached snapshot in the
    // same blob covers it whenever it was still current.
    CPA_RETURN_NOT_OK(ReadConsensusSnapshot(reader).status());
  }
  return Status::OK();
}

}  // namespace cpa
