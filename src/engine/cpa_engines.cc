#include "engine/cpa_engines.h"

#include <utility>

#include "engine/checkpoint.h"
#include "engine/engine_registry.h"
#include "engine/offline_engine.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace cpa {

namespace {

/// The executor a CPA session runs its sweeps on, plus the pool it owns.
struct SessionPool {
  std::unique_ptr<ThreadPool> owned;
  Executor* executor = nullptr;
};

/// The one rule for session-owned pools: a runtime `config.pool` wins and
/// stays caller-owned; otherwise the session owns a pool of
/// `config.num_threads` workers, or none at 1 (sequential). The caller
/// must destroy `owned` after everything that holds `executor`.
SessionPool MakeSessionPool(const EngineConfig& config) {
  SessionPool pool;
  pool.executor = config.pool;
  if (pool.executor == nullptr && config.num_threads > 1) {
    pool.owned = std::make_unique<ThreadPool>(config.num_threads);
    pool.executor = pool.owned.get();
  }
  return pool;
}

}  // namespace

// ---------------------------------------------------------------------------
// CpaSviEngine
// ---------------------------------------------------------------------------

CpaSviEngine::CpaSviEngine(CpaOnline online, std::unique_ptr<ThreadPool> owned_pool)
    : ConsensusEngine("CPA-SVI"),
      owned_pool_(std::move(owned_pool)),
      online_(std::move(online)) {}

Result<std::unique_ptr<CpaSviEngine>> CpaSviEngine::Create(const EngineConfig& config) {
  CPA_RETURN_NOT_OK(config.Validate());
  SessionPool pool = MakeSessionPool(config);
  CPA_ASSIGN_OR_RETURN(
      CpaOnline online,
      CpaOnline::Create(config.num_items, config.num_workers, config.num_labels,
                        config.cpa, config.svi, pool.executor));
  return std::unique_ptr<CpaSviEngine>(
      new CpaSviEngine(std::move(online), std::move(pool.owned)));
}

Status CpaSviEngine::OnObserve(const AnswerMatrix& answers,
                               std::span<const std::size_t> indices) {
  return online_.ObserveBatch(answers, indices);
}

Result<ConsensusSnapshot> CpaSviEngine::OnSnapshot(const AnswerMatrix& stream) {
  const Stopwatch prediction_watch;
  CPA_ASSIGN_OR_RETURN(CpaPrediction prediction, online_.Predict(stream));
  ConsensusSnapshot snapshot;
  snapshot.fit_stats.prediction_seconds = prediction_watch.ElapsedSeconds();
  snapshot.predictions = std::move(prediction.labels);
  snapshot.label_scores = std::move(prediction.scores);
  snapshot.fit_stats.iterations = online_.batches_seen();
  snapshot.learning_rate = online_.last_learning_rate();
  return snapshot;
}

Status CpaSviEngine::OnSaveState(CheckpointWriter& writer) const {
  online_.SaveState(writer);
  return Status::OK();
}

Status CpaSviEngine::OnRestoreState(CheckpointReader& reader) {
  return online_.RestoreState(reader);
}

// ---------------------------------------------------------------------------
// Built-in registrations
// ---------------------------------------------------------------------------

namespace {

/// Builds a session's aggregator; `executor` is the session's sweep pool
/// (nullptr = sequential).
using AggregatorMaker = std::function<std::unique_ptr<Aggregator>(
    const EngineConfig& config, Executor* executor)>;

/// Registers an offline method behind `OfflineEngine`. Only methods with
/// parallel sweeps (`parallel`) get a session pool; the others never spawn
/// threads.
EngineRegistry::Factory OfflineFactory(AggregatorMaker make, bool parallel = false) {
  return [make = std::move(make), parallel](const EngineConfig& config)
             -> Result<std::unique_ptr<ConsensusEngine>> {
    SessionPool pool = parallel ? MakeSessionPool(config) : SessionPool();
    // The session carries the registry name it was opened under
    // (config.method), which may differ from the aggregator's display name
    // (e.g. "EM" opens a DawidSkene that calls itself "EM+cost" when the
    // cost refinement is on) — callers key results by what they asked for.
    return std::unique_ptr<ConsensusEngine>(std::make_unique<OfflineEngine>(
        config.method, make(config, pool.executor), config.num_labels,
        std::move(pool.owned)));
  };
}

}  // namespace

void RegisterBuiltinEngines(EngineRegistry& registry) {
  auto must_register = [&registry](std::string name, EngineRegistry::Factory factory) {
    const Status status = registry.Register(std::move(name), std::move(factory));
    CPA_CHECK(status.ok()) << status.ToString();
  };
  must_register("MV", OfflineFactory([](const EngineConfig& config, Executor*) {
                  return std::make_unique<MajorityVote>(config.majority);
                }));
  must_register("EM", OfflineFactory([](const EngineConfig& config, Executor*) {
                  return std::make_unique<DawidSkene>(config.em);
                }));
  must_register("cBCC", OfflineFactory([](const EngineConfig& config, Executor*) {
                  return std::make_unique<Cbcc>(config.cbcc);
                }));
  for (const CpaVariant variant :
       {CpaVariant::kFull, CpaVariant::kNoZ, CpaVariant::kNoL}) {
    must_register(std::string(CpaVariantName(variant)),
                  OfflineFactory(
                      [variant](const EngineConfig& config, Executor* executor) {
                        return std::make_unique<CpaAggregator>(config.cpa, variant,
                                                               executor);
                      },
                      /*parallel=*/true));
  }
  must_register(
      "CPA-SVI",
      [](const EngineConfig& config) -> Result<std::unique_ptr<ConsensusEngine>> {
        CPA_ASSIGN_OR_RETURN(std::unique_ptr<CpaSviEngine> engine,
                             CpaSviEngine::Create(config));
        return std::unique_ptr<ConsensusEngine>(std::move(engine));
      });
}

}  // namespace cpa
