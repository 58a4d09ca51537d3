#include "engine/consensus_engine.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "baselines/cbcc.h"
#include "baselines/dawid_skene.h"
#include "baselines/majority_vote.h"
#include "core/cpa.h"
#include "engine/cpa_engines.h"
#include "engine/engine_registry.h"
#include "eval/experiment.h"
#include "simulation/crowd_simulator.h"
#include "simulation/perturbations.h"

namespace cpa {
namespace {

/// Small simulated stream: 10 labels, 30 workers.
Dataset StreamDataset(std::uint64_t seed, std::size_t items = 150) {
  Rng rng(seed);
  TruthConfig truth_config;
  truth_config.num_items = items;
  truth_config.num_labels = 10;
  truth_config.num_clusters = 3;
  truth_config.correlation = 0.8;
  truth_config.mean_labels_per_item = 2.5;
  truth_config.max_labels_per_item = 5;
  auto truth = GenerateGroundTruth(truth_config, rng);
  EXPECT_TRUE(truth.ok());

  PopulationConfig population_config;
  population_config.num_workers = 30;
  population_config.num_labels = 10;
  population_config.mix = PopulationMix::PaperSimulationDefault();
  auto workers = GeneratePopulation(population_config, rng);
  EXPECT_TRUE(workers.ok());

  SimulationConfig sim_config;
  sim_config.answers_per_item = 7.0;
  sim_config.candidate_set_size = 10;
  auto answers = SimulateAnswers(truth.value(), workers.value(), sim_config, rng);
  EXPECT_TRUE(answers.ok());

  Dataset dataset;
  dataset.name = "engine-test";
  dataset.num_labels = 10;
  dataset.answers = std::move(answers).value();
  dataset.ground_truth = std::move(truth.value().labels);
  return dataset;
}

EngineConfig FastConfig(const std::string& method, const Dataset& dataset) {
  EngineConfig config = EngineConfig::ForDataset(method, dataset);
  config.cpa.max_communities = 6;
  config.cpa.max_clusters = 48;
  config.cpa.max_iterations = 15;
  return config;
}

std::unique_ptr<ConsensusEngine> MustOpen(const EngineConfig& config) {
  auto engine = EngineRegistry::Global().Open(config);
  EXPECT_TRUE(engine.ok()) << config.method << ": " << engine.status().ToString();
  return std::move(engine).value();
}

/// The direct (pre-engine) counterpart of a registered offline method.
std::unique_ptr<Aggregator> DirectAggregator(const std::string& method,
                                             const EngineConfig& config) {
  if (method == "MV") return std::make_unique<MajorityVote>(config.majority);
  if (method == "EM") return std::make_unique<DawidSkene>(config.em);
  if (method == "cBCC") return std::make_unique<Cbcc>(config.cbcc);
  if (method == "CPA")
    return std::make_unique<CpaAggregator>(config.cpa, CpaVariant::kFull);
  if (method == "CPA-NoZ")
    return std::make_unique<CpaAggregator>(config.cpa, CpaVariant::kNoZ);
  if (method == "CPA-NoL")
    return std::make_unique<CpaAggregator>(config.cpa, CpaVariant::kNoL);
  return nullptr;
}

// The acceptance property of the offline adapter: once a session has
// observed the whole stream (in any batch split), Finalize() is *equal* to
// a direct Aggregate() call on the same answers — for every registered
// offline method.
TEST(ConsensusEngineTest, OfflineFinalizeEqualsDirectAggregate) {
  const Dataset dataset = StreamDataset(3);
  for (const std::string& method :
       {std::string("MV"), std::string("EM"), std::string("cBCC"),
        std::string("CPA"), std::string("CPA-NoZ"), std::string("CPA-NoL")}) {
    const EngineConfig config = FastConfig(method, dataset);
    auto engine = MustOpen(config);

    Rng rng(17);
    const BatchPlan plan = MakeArrivalSchedule(dataset.answers, 4, rng);
    for (const auto& batch : plan.batches) {
      ASSERT_TRUE(engine->Observe({&dataset.answers, batch}).ok()) << method;
    }
    const auto final_snapshot = engine->Finalize();
    ASSERT_TRUE(final_snapshot.ok())
        << method << ": " << final_snapshot.status().ToString();

    auto direct = DirectAggregator(method, config);
    ASSERT_NE(direct, nullptr) << method;
    const auto direct_result =
        direct->Aggregate(dataset.answers, dataset.num_labels);
    ASSERT_TRUE(direct_result.ok())
        << method << ": " << direct_result.status().ToString();

    const std::vector<LabelSet>& engine_predictions =
        final_snapshot.value()->predictions;
    const std::vector<LabelSet>& direct_predictions =
        direct_result.value().predictions;
    ASSERT_EQ(engine_predictions.size(), direct_predictions.size()) << method;
    for (std::size_t i = 0; i < engine_predictions.size(); ++i) {
      EXPECT_EQ(engine_predictions[i], direct_predictions[i])
          << method << " item " << i;
    }
    if (!direct_result.value().label_scores.empty()) {
      EXPECT_DOUBLE_EQ(final_snapshot.value()->label_scores.MaxAbsDiff(
                           direct_result.value().label_scores),
                       0.0)
          << method;
    }
    EXPECT_EQ(final_snapshot.value()->fit_stats.iterations,
              direct_result.value().stats.iterations)
        << method;
  }
}

// Mid-stream snapshots of the adapter are offline re-runs on the data so
// far: equal to Aggregate() on the prefix sub-matrix.
TEST(ConsensusEngineTest, OfflineSnapshotMatchesPrefixAggregate) {
  const Dataset dataset = StreamDataset(5);
  auto engine = MustOpen(FastConfig("MV", dataset));

  Rng rng(19);
  const BatchPlan plan = MakeArrivalSchedule(dataset.answers, 4, rng);
  ASSERT_TRUE(engine->Observe({&dataset.answers, plan.batches[0]}).ok());
  ASSERT_TRUE(engine->Observe({&dataset.answers, plan.batches[1]}).ok());
  const auto snapshot = engine->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(snapshot.value()->finalized);
  EXPECT_EQ(snapshot.value()->batches_seen, 2u);

  std::vector<std::size_t> prefix = plan.Prefix(2);
  std::sort(prefix.begin(), prefix.end());
  MajorityVote mv;
  const auto direct =
      mv.Aggregate(dataset.answers.Subset(prefix), dataset.num_labels);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(snapshot.value()->predictions.size(), direct.value().predictions.size());
  for (std::size_t i = 0; i < direct.value().predictions.size(); ++i) {
    EXPECT_EQ(snapshot.value()->predictions[i], direct.value().predictions[i]);
  }
}

// The native online engine is CpaOnline, batch for batch: same model, same
// predictions, same learning-rate schedule.
TEST(ConsensusEngineTest, SviEngineMatchesCpaOnlineBatchForBatch) {
  const Dataset dataset = StreamDataset(7);
  const EngineConfig config = FastConfig("CPA-SVI", dataset);
  auto engine = MustOpen(config);

  auto online = CpaOnline::Create(config.num_items, config.num_workers,
                                  config.num_labels, config.cpa, config.svi);
  ASSERT_TRUE(online.ok());

  Rng rng(23);
  const BatchPlan plan = MakeWorkerBatches(dataset.answers, 8, rng);
  for (std::size_t b = 0; b < plan.num_batches(); ++b) {
    ASSERT_TRUE(engine->Observe({&dataset.answers, plan.batches[b]}).ok());
    ASSERT_TRUE(online.value().ObserveBatch(dataset.answers, plan.batches[b]).ok());

    const auto snapshot = engine->Snapshot();
    ASSERT_TRUE(snapshot.ok());
    const auto prediction = online.value().Predict(dataset.answers);
    ASSERT_TRUE(prediction.ok());

    EXPECT_EQ(snapshot.value()->batches_seen, online.value().batches_seen());
    EXPECT_EQ(snapshot.value()->answers_seen, online.value().answers_seen());
    EXPECT_DOUBLE_EQ(snapshot.value()->learning_rate,
                     online.value().last_learning_rate());
    ASSERT_EQ(snapshot.value()->predictions.size(), prediction.value().labels.size());
    for (std::size_t i = 0; i < prediction.value().labels.size(); ++i) {
      EXPECT_EQ(snapshot.value()->predictions[i], prediction.value().labels[i])
          << "batch " << b << " item " << i;
    }
    EXPECT_DOUBLE_EQ(
        snapshot.value()->label_scores.MaxAbsDiff(prediction.value().scores), 0.0)
        << "batch " << b;
  }
}

TEST(ConsensusEngineTest, SnapshotBeforeAnyObservationIsEmpty) {
  const Dataset dataset = StreamDataset(11, 50);
  auto engine = MustOpen(FastConfig("MV", dataset));
  const auto snapshot = engine->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value()->method, "MV");
  EXPECT_TRUE(snapshot.value()->predictions.empty());
  EXPECT_EQ(snapshot.value()->batches_seen, 0u);
  EXPECT_EQ(snapshot.value()->answers_seen, 0u);
  EXPECT_FALSE(snapshot.value()->finalized);
}

TEST(ConsensusEngineTest, LifecycleGuards) {
  const Dataset dataset = StreamDataset(13, 50);
  auto engine = MustOpen(FastConfig("MV", dataset));

  // Null stream.
  EXPECT_EQ(engine->Observe({nullptr, {}}).code(), StatusCode::kInvalidArgument);

  // Out-of-range index.
  const std::vector<std::size_t> bogus = {dataset.answers.num_answers() + 1};
  EXPECT_EQ(engine->Observe({&dataset.answers, bogus}).code(),
            StatusCode::kOutOfRange);

  // Empty batches are no-ops.
  ASSERT_TRUE(engine->Observe({&dataset.answers, {}}).ok());
  EXPECT_EQ(engine->batches_seen(), 0u);

  // One real batch, then a foreign stream matrix is rejected.
  std::vector<std::size_t> batch(10);
  std::iota(batch.begin(), batch.end(), std::size_t{0});
  ASSERT_TRUE(engine->Observe({&dataset.answers, batch}).ok());
  EXPECT_EQ(engine->batches_seen(), 1u);
  EXPECT_EQ(engine->answers_seen(), 10u);
  const Dataset other = StreamDataset(29, 50);
  EXPECT_EQ(engine->Observe({&other.answers, batch}).code(),
            StatusCode::kInvalidArgument);

  // Finalize is idempotent and closes the session.
  const auto first = engine->Finalize();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value()->finalized);
  EXPECT_TRUE(engine->finalized());
  const auto second = engine->Finalize();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value()->predictions.size(), second.value()->predictions.size());
  EXPECT_EQ(engine->Observe({&dataset.answers, batch}).code(),
            StatusCode::kFailedPrecondition);
  // Snapshot after Finalize returns the final state.
  const auto after = engine->Snapshot();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value()->finalized);
}

// Snapshots are published as immutable shared values and cached at the
// base level: no new data → the same object; new data → a new object;
// finalize → one stable final object forever.
TEST(ConsensusEngineTest, SnapshotsAreSharedAndCachedUntilNewData) {
  const Dataset dataset = StreamDataset(43, 60);
  auto engine = MustOpen(FastConfig("MV", dataset));

  std::vector<std::size_t> batch(10);
  std::iota(batch.begin(), batch.end(), std::size_t{0});
  ASSERT_TRUE(engine->Observe({&dataset.answers, batch}).ok());

  const auto first = engine->Snapshot();
  const auto second = engine->Snapshot();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get())
      << "no new data: the cached shared snapshot must be handed back";

  std::vector<std::size_t> more = {10, 11, 12};
  ASSERT_TRUE(engine->Observe({&dataset.answers, more}).ok());
  const auto third = engine->Snapshot();
  ASSERT_TRUE(third.ok());
  EXPECT_NE(third.value().get(), first.value().get())
      << "new data must invalidate the cache";
  // The first snapshot is immutable: still the pre-batch counters.
  EXPECT_EQ(first.value()->answers_seen, 10u);
  EXPECT_EQ(third.value()->answers_seen, 13u);

  const auto final_snapshot = engine->Finalize();
  const auto after = engine->Snapshot();
  ASSERT_TRUE(final_snapshot.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().get(), final_snapshot.value().get());
  EXPECT_EQ(engine->Finalize().value().get(), final_snapshot.value().get());
}

TEST(ConsensusEngineTest, StreamingExperimentScoresEveryBatch) {
  const Dataset dataset = StreamDataset(31);
  auto engine = MustOpen(FastConfig("CPA-SVI", dataset));
  Rng rng(37);
  const BatchPlan plan = MakeArrivalSchedule(dataset.answers, 5, rng);
  const auto run = RunStreamingExperiment(*engine, dataset, plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().steps.size(), plan.num_batches());
  std::size_t previous_answers = 0;
  for (const StreamingStepResult& step : run.value().steps) {
    EXPECT_GT(step.answers_seen, previous_answers);
    previous_answers = step.answers_seen;
    EXPECT_GE(step.metrics.precision, 0.0);
    EXPECT_LE(step.metrics.precision, 1.0);
  }
  EXPECT_EQ(previous_answers, dataset.answers.num_answers());
  EXPECT_GT(run.value().final_result.metrics.precision, 0.3);
  EXPECT_TRUE(engine->finalized());

  // A used session cannot host another experiment.
  EXPECT_EQ(RunStreamingExperiment(*engine, dataset, plan).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ConsensusEngineTest, EngineOneShotMatchesAggregatorExperiment) {
  const Dataset dataset = StreamDataset(41);
  auto engine = MustOpen(FastConfig("MV", dataset));
  const auto by_engine = RunExperiment(*engine, dataset);
  ASSERT_TRUE(by_engine.ok());
  MajorityVote mv;
  const auto by_aggregator = RunExperiment(mv, dataset);
  ASSERT_TRUE(by_aggregator.ok());
  EXPECT_DOUBLE_EQ(by_engine.value().metrics.precision,
                   by_aggregator.value().metrics.precision);
  EXPECT_DOUBLE_EQ(by_engine.value().metrics.recall,
                   by_aggregator.value().metrics.recall);
}

}  // namespace
}  // namespace cpa
