#ifndef CPA_ENGINE_OFFLINE_ENGINE_H_
#define CPA_ENGINE_OFFLINE_ENGINE_H_

/// \file offline_engine.h
/// \brief The accumulate-then-refit adapter: any offline `Aggregator` as a
/// streaming `ConsensusEngine`.
///
/// Every offline method — MV, EM, cBCC and the CPA variants — runs behind
/// this one adapter. Observed batch indices are accumulated; a snapshot
/// re-solves on the sub-matrix of everything seen so far (the "offline
/// re-run on the data so far" reference of Fig 6). The base class's
/// snapshot cache makes repeated snapshots without new answers free.
/// Accumulated indices are refit in stream order; once a session has
/// observed every answer of the stream the refit runs on the stream matrix
/// itself, so `Finalize()` equals a direct `Aggregate()` call.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/aggregator.h"
#include "engine/consensus_engine.h"
#include "util/thread_pool.h"

namespace cpa {

/// \brief Wraps an `Aggregator` (MV, EM, cBCC, `CpaAggregator`, or a
/// caller-provided method) as a `ConsensusEngine`.
class OfflineEngine final : public ConsensusEngine {
 public:
  /// `name` is the session/registry name; it may differ from
  /// `aggregator->name()` (e.g. a registry alias). `owned_pool` is the
  /// session-owned pool the aggregator's executor points at, if any; the
  /// engine keeps it alive for as long as the aggregator.
  OfflineEngine(std::string name, std::unique_ptr<Aggregator> aggregator,
                std::size_t num_labels,
                std::unique_ptr<ThreadPool> owned_pool = nullptr);

  /// The wrapped method (for diagnostics, e.g. `CpaAggregator::model()`).
  Aggregator& aggregator() { return *aggregator_; }

 protected:
  Status OnObserve(const AnswerMatrix& answers,
                   std::span<const std::size_t> indices) override;
  Result<ConsensusSnapshot> OnSnapshot(const AnswerMatrix& stream) override;

  /// Checkpointing: the accumulated index set. Solver state is not
  /// serialized — refits are deterministic, so the next snapshot rebuilds
  /// it exactly.
  Status OnSaveState(CheckpointWriter& writer) const override;
  Status OnRestoreState(CheckpointReader& reader) override;

 private:
  std::size_t num_labels_;
  std::vector<std::size_t> seen_;  // sorted, deduplicated at each refit
  // Declared before the aggregator, which may hold a raw pointer to it.
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<Aggregator> aggregator_;
};

}  // namespace cpa

#endif  // CPA_ENGINE_OFFLINE_ENGINE_H_
