#ifndef CPA_ENGINE_CPA_ENGINES_H_
#define CPA_ENGINE_CPA_ENGINES_H_

/// \file cpa_engines.h
/// \brief The built-in engine registrations and the native online CPA
/// session.
///
/// Offline CPA ("CPA", "CPA-NoZ", "CPA-NoL") needs no engine class of its
/// own: it registers as a `CpaAggregator` behind the generic
/// `OfflineEngine` adapter, like MV, EM and cBCC. `CpaSviEngine` is the
/// native online learner — `CpaOnline` (Algorithm 2) consumes batches
/// incrementally and never refits ("CPA-SVI").

#include <memory>
#include <string>

#include "core/cpa.h"
#include "engine/engine_config.h"
#include "engine/consensus_engine.h"

namespace cpa {

class EngineRegistry;

/// \brief Online CPA as a session: `Observe` is one SVI step, `Snapshot`
/// predicts from the current model state (no refit, any time).
class CpaSviEngine : public ConsensusEngine {
 public:
  /// Builds the learner over the stream dimensions of `config` (which must
  /// name upper bounds for items/workers; unseen entities keep their
  /// initial state).
  static Result<std::unique_ptr<CpaSviEngine>> Create(const EngineConfig& config);

  /// The wrapped learner (current model, learning-rate diagnostics).
  const CpaOnline& online() const { return online_; }

 protected:
  Status OnObserve(const AnswerMatrix& answers,
                   std::span<const std::size_t> indices) override;
  Result<ConsensusSnapshot> OnSnapshot(const AnswerMatrix& stream) override;

  /// Checkpointing: delegates to `CpaOnline::SaveState`/`RestoreState`.
  Status OnSaveState(CheckpointWriter& writer) const override;
  Status OnRestoreState(CheckpointReader& reader) override;

 private:
  CpaSviEngine(CpaOnline online, std::unique_ptr<ThreadPool> owned_pool);

  // Declared before the learner, which holds a raw pointer to it.
  std::unique_ptr<ThreadPool> owned_pool_;
  CpaOnline online_;
};

/// Installs the paper's §5.2 line-up into `registry`: "MV", "EM", "cBCC",
/// "CPA", "CPA-NoZ" and "CPA-NoL" behind `OfflineEngine`, and "CPA-SVI"
/// behind `CpaSviEngine`. Called once by `EngineRegistry::Global()`.
void RegisterBuiltinEngines(EngineRegistry& registry);

}  // namespace cpa

#endif  // CPA_ENGINE_CPA_ENGINES_H_
