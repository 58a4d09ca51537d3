#include "engine/checkpoint.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/consensus_engine.h"
#include "engine/cpa_engines.h"
#include "engine/engine_config.h"
#include "engine/engine_registry.h"
#include "eval/experiment.h"
#include "simulation/crowd_simulator.h"

namespace cpa {
namespace {

/// Small simulated stream, same recipe as consensus_engine_test.cc.
Dataset StreamDataset(std::uint64_t seed, std::size_t items = 100) {
  Rng rng(seed);
  TruthConfig truth_config;
  truth_config.num_items = items;
  truth_config.num_labels = 8;
  truth_config.num_clusters = 3;
  truth_config.correlation = 0.8;
  truth_config.mean_labels_per_item = 2.0;
  truth_config.max_labels_per_item = 4;
  auto truth = GenerateGroundTruth(truth_config, rng);
  EXPECT_TRUE(truth.ok());

  PopulationConfig population_config;
  population_config.num_workers = 24;
  population_config.num_labels = 8;
  population_config.mix = PopulationMix::PaperSimulationDefault();
  auto workers = GeneratePopulation(population_config, rng);
  EXPECT_TRUE(workers.ok());

  SimulationConfig sim_config;
  sim_config.answers_per_item = 6.0;
  sim_config.candidate_set_size = 8;
  auto answers = SimulateAnswers(truth.value(), workers.value(), sim_config, rng);
  EXPECT_TRUE(answers.ok());

  Dataset dataset;
  dataset.name = "checkpoint-test";
  dataset.num_labels = 8;
  dataset.answers = std::move(answers).value();
  dataset.ground_truth = std::move(truth.value().labels);
  return dataset;
}

EngineConfig FastConfig(const std::string& method, const Dataset& dataset,
                        std::size_t num_threads = 1) {
  EngineConfig config = EngineConfig::ForDataset(method, dataset);
  config.cpa.max_communities = 5;
  config.cpa.max_clusters = 32;
  config.cpa.max_iterations = 10;
  config.num_threads = num_threads;
  return config;
}

std::unique_ptr<ConsensusEngine> MustOpen(const EngineConfig& config) {
  auto engine = EngineRegistry::Global().Open(config);
  EXPECT_TRUE(engine.ok()) << config.method << ": " << engine.status().ToString();
  return std::move(engine).value();
}

void ExpectSameSnapshot(const ConsensusSnapshot& a, const ConsensusSnapshot& b,
                        const std::string& what) {
  EXPECT_EQ(a.method, b.method) << what;
  EXPECT_EQ(a.batches_seen, b.batches_seen) << what;
  EXPECT_EQ(a.answers_seen, b.answers_seen) << what;
  EXPECT_EQ(a.finalized, b.finalized) << what;
  EXPECT_EQ(a.learning_rate, b.learning_rate) << what;
  EXPECT_EQ(a.fit_stats.iterations, b.fit_stats.iterations) << what;
  ASSERT_EQ(a.predictions.size(), b.predictions.size()) << what;
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << what << " item " << i;
  }
  if (!a.label_scores.empty() || !b.label_scores.empty()) {
    ASSERT_EQ(a.label_scores.rows(), b.label_scores.rows()) << what;
    EXPECT_EQ(a.label_scores.MaxAbsDiff(b.label_scores), 0.0) << what;
  }
}

TEST(CheckpointCodecTest, PrimitivesRoundTrip) {
  CheckpointWriter writer;
  writer.WriteU8(0xAB);
  writer.WriteU16(0xBEEF);
  writer.WriteU32(0xDEADBEEFu);
  writer.WriteU64(0x0123456789ABCDEFull);
  writer.WriteBool(true);
  writer.WriteBool(false);
  writer.WriteDouble(-0.17);
  writer.WriteSize(42);
  const std::string embedded_nul("he\0llo", 6);
  writer.WriteString(embedded_nul);
  writer.WriteDoubles(std::vector<double>{1.5, -2.5, 0.0});
  writer.WriteSizes(std::vector<std::size_t>{7, 0, 9});
  writer.WriteBools(std::vector<bool>{true, false, true});
  Matrix matrix(2, 3);
  matrix(0, 0) = 1.0;
  matrix(1, 2) = -4.5;
  writer.WriteMatrix(matrix);
  writer.WriteLabelSet(LabelSet{1, 5, 7});

  CheckpointReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadU8().value(), 0xAB);
  EXPECT_EQ(reader.ReadU16().value(), 0xBEEF);
  EXPECT_EQ(reader.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(reader.ReadBool().value());
  EXPECT_FALSE(reader.ReadBool().value());
  EXPECT_EQ(reader.ReadDouble().value(), -0.17);
  EXPECT_EQ(reader.ReadSize().value(), 42u);
  EXPECT_EQ(reader.ReadString().value(), embedded_nul);
  EXPECT_EQ(reader.ReadDoubles().value(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(reader.ReadSizes().value(), (std::vector<std::size_t>{7, 0, 9}));
  EXPECT_EQ(reader.ReadBools().value(), (std::vector<bool>{true, false, true}));
  const auto read_matrix = reader.ReadMatrix();
  ASSERT_TRUE(read_matrix.ok());
  EXPECT_EQ(read_matrix.value().rows(), 2u);
  EXPECT_EQ(read_matrix.value().cols(), 3u);
  EXPECT_EQ(read_matrix.value().MaxAbsDiff(matrix), 0.0);
  EXPECT_EQ(reader.ReadLabelSet().value(), (LabelSet{1, 5, 7}));
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST(CheckpointCodecTest, ReaderRejectsMalformedInput) {
  // Truncation mid-scalar.
  {
    CheckpointReader reader("\x01\x02");
    EXPECT_FALSE(reader.ReadU32().ok());
  }
  // Booleans must be exactly 0 or 1.
  {
    CheckpointReader reader("\x02");
    EXPECT_FALSE(reader.ReadBool().ok());
  }
  // A count that lies about the remaining bytes must be rejected before
  // any allocation happens.
  {
    CheckpointWriter writer;
    writer.WriteU64(0xFFFFFFFFFFFFull);  // claims ~2^48 doubles follow
    writer.WriteDouble(1.0);
    CheckpointReader reader(writer.bytes());
    EXPECT_FALSE(reader.ReadDoubles().ok());
  }
  {
    CheckpointWriter writer;
    writer.WriteU64(1u << 30);  // matrix rows far beyond the payload
    writer.WriteU64(1u << 30);
    CheckpointReader reader(writer.bytes());
    EXPECT_FALSE(reader.ReadMatrix().ok());
  }
  // Trailing bytes are a layout disagreement, not padding.
  {
    CheckpointWriter writer;
    writer.WriteU8(1);
    writer.WriteU8(2);
    CheckpointReader reader(writer.bytes());
    ASSERT_TRUE(reader.ReadU8().ok());
    EXPECT_FALSE(reader.ExpectEnd().ok());
  }
}

/// Save mid-stream, restore into a fresh engine, continue both to the
/// end: every observable (snapshots, final predictions, re-saved state
/// bytes) must be identical to the uninterrupted run.
void CheckSaveRestoreContinue(const std::string& method,
                              std::size_t num_threads) {
  const std::string what =
      method + " threads=" + std::to_string(num_threads);
  const Dataset dataset = StreamDataset(91);
  const EngineConfig config = FastConfig(method, dataset, num_threads);

  Rng rng(57);
  const BatchPlan plan = MakeArrivalSchedule(dataset.answers, 6, rng);
  const std::size_t cut = plan.num_batches() / 2;

  auto uninterrupted = MustOpen(config);
  auto original = MustOpen(config);
  for (std::size_t b = 0; b < cut; ++b) {
    ASSERT_TRUE(uninterrupted->Observe({&dataset.answers, plan.batches[b]}).ok());
    ASSERT_TRUE(original->Observe({&dataset.answers, plan.batches[b]}).ok());
  }
  // Publish a snapshot before saving so the cached-snapshot path of the
  // blob is exercised too.
  ASSERT_TRUE(uninterrupted->Snapshot().ok());
  ASSERT_TRUE(original->Snapshot().ok());

  const auto state = original->SaveState();
  ASSERT_TRUE(state.ok()) << what << ": " << state.status().ToString();

  auto restored = MustOpen(config);
  const Status restore =
      restored->RestoreState(state.value(), &dataset.answers);
  ASSERT_TRUE(restore.ok()) << what << ": " << restore.ToString();

  // Restore is lossless: saving again reproduces the exact same bytes.
  const auto resaved = restored->SaveState();
  ASSERT_TRUE(resaved.ok()) << what;
  EXPECT_EQ(resaved.value(), state.value())
      << what << ": restored state must re-serialize bit-identically";

  // The restored engine's snapshot equals the uninterrupted engine's.
  const auto mid_expected = uninterrupted->Snapshot();
  const auto mid_restored = restored->Snapshot();
  ASSERT_TRUE(mid_expected.ok());
  ASSERT_TRUE(mid_restored.ok()) << what;
  ExpectSameSnapshot(*mid_expected.value(), *mid_restored.value(),
                     what + " mid-stream");

  // Continue both runs to the end.
  for (std::size_t b = cut; b < plan.num_batches(); ++b) {
    ASSERT_TRUE(uninterrupted->Observe({&dataset.answers, plan.batches[b]}).ok());
    ASSERT_TRUE(restored->Observe({&dataset.answers, plan.batches[b]}).ok());
  }
  const auto final_expected = uninterrupted->Finalize();
  const auto final_restored = restored->Finalize();
  ASSERT_TRUE(final_expected.ok());
  ASSERT_TRUE(final_restored.ok()) << what;
  ExpectSameSnapshot(*final_expected.value(), *final_restored.value(),
                     what + " final");
}

TEST(CheckpointEngineTest, SviSaveRestoreContinueIsBitIdentical) {
  CheckSaveRestoreContinue("CPA-SVI", 1);
  CheckSaveRestoreContinue("CPA-SVI", 3);
}

TEST(CheckpointEngineTest, OfflineSaveRestoreContinueIsBitIdentical) {
  CheckSaveRestoreContinue("MV", 1);
  CheckSaveRestoreContinue("CPA", 2);
}

TEST(CheckpointEngineTest, RestoreRejectsCorruptBlobs) {
  const Dataset dataset = StreamDataset(29, 60);
  const EngineConfig config = FastConfig("CPA-SVI", dataset);

  auto engine = MustOpen(config);
  Rng rng(31);
  const BatchPlan plan = MakeArrivalSchedule(dataset.answers, 3, rng);
  ASSERT_TRUE(engine->Observe({&dataset.answers, plan.batches[0]}).ok());
  const auto state = engine->SaveState();
  ASSERT_TRUE(state.ok());
  const std::string& blob = state.value();

  // Wrong magic.
  {
    std::string bad = blob;
    bad[0] ^= 0x5A;
    auto fresh = MustOpen(config);
    EXPECT_FALSE(fresh->RestoreState(bad, &dataset.answers).ok());
  }
  // Wrong version.
  {
    std::string bad = blob;
    bad[4] = '\x7F';
    auto fresh = MustOpen(config);
    EXPECT_FALSE(fresh->RestoreState(bad, &dataset.answers).ok());
  }
  // Engine-name mismatch: an MV engine must refuse a CPA-SVI blob.
  {
    auto mv = MustOpen(FastConfig("MV", dataset));
    EXPECT_FALSE(mv->RestoreState(blob, &dataset.answers).ok());
  }
  // Trailing garbage.
  {
    auto fresh = MustOpen(config);
    EXPECT_FALSE(fresh->RestoreState(blob + "x", &dataset.answers).ok());
  }
  // Every strict prefix must fail cleanly — no crash, no partial state —
  // so one engine takes every attempt.
  auto fresh = MustOpen(config);
  for (std::size_t length = 0; length < blob.size(); ++length) {
    const Status status = fresh->RestoreState(
        std::string_view(blob).substr(0, length), &dataset.answers);
    EXPECT_FALSE(status.ok()) << "prefix of " << length << " bytes";
    EXPECT_EQ(fresh->answers_seen(), 0u) << "prefix of " << length << " bytes";
  }
  // Control: the same engine restores the intact blob. `RestoreState`
  // refuses a used engine or learner, so this also proves that every
  // failed attempt above left the engine fresh.
  ASSERT_TRUE(fresh->RestoreState(blob, &dataset.answers).ok());
  const auto resaved = fresh->SaveState();
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(resaved.value(), blob);
}

TEST(CheckpointEngineTest, RestoreRequiresFreshEngine) {
  const Dataset dataset = StreamDataset(41, 60);
  const EngineConfig config = FastConfig("MV", dataset);
  auto engine = MustOpen(config);
  Rng rng(43);
  const BatchPlan plan = MakeArrivalSchedule(dataset.answers, 3, rng);
  ASSERT_TRUE(engine->Observe({&dataset.answers, plan.batches[0]}).ok());
  const auto state = engine->SaveState();
  ASSERT_TRUE(state.ok());

  // The engine that has already observed data refuses to be overwritten.
  EXPECT_EQ(engine->RestoreState(state.value(), &dataset.answers).code(),
            StatusCode::kFailedPrecondition);

  // A blob saved from a bound engine needs a stream to bind to.
  auto fresh = MustOpen(config);
  EXPECT_EQ(fresh->RestoreState(state.value(), nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointEngineTest, FinalizedEngineRoundTrips) {
  const Dataset dataset = StreamDataset(47, 60);
  const EngineConfig config = FastConfig("CPA-SVI", dataset);
  auto engine = MustOpen(config);
  Rng rng(53);
  const BatchPlan plan = MakeArrivalSchedule(dataset.answers, 2, rng);
  for (const auto& batch : plan.batches) {
    ASSERT_TRUE(engine->Observe({&dataset.answers, batch}).ok());
  }
  const auto final_snapshot = engine->Finalize();
  ASSERT_TRUE(final_snapshot.ok());

  const auto state = engine->SaveState();
  ASSERT_TRUE(state.ok());
  auto restored = MustOpen(config);
  ASSERT_TRUE(restored->RestoreState(state.value(), &dataset.answers).ok());
  EXPECT_TRUE(restored->finalized());
  const auto after = restored->Finalize();
  ASSERT_TRUE(after.ok());
  ExpectSameSnapshot(*final_snapshot.value(), *after.value(), "finalized");
  // Further observes stay rejected, exactly like the original.
  EXPECT_EQ(restored->Observe({&dataset.answers, plan.batches[0]}).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace cpa
