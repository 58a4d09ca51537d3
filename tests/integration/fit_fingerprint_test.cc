/// Bit-level fingerprints of the CPA fits: a 64-bit FNV-1a hash over the
/// raw bits of every prediction and every label score of small seeded
/// runs — CPA-SVI streams with mid-stream refreshes, and the offline CPA
/// and CPA-NoZ (one community per worker) fits. The constants were recorded
/// before the sparse prediction and SVI-step rewrite; any change to the
/// order of the IEEE operations that produce an output moves them. (They
/// assume glibc's `exp`/`log`, the same assumption the committed accuracy
/// rows make.)

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/consensus_engine.h"
#include "engine/engine_registry.h"
#include "simulation/crowd_simulator.h"
#include "simulation/perturbations.h"

namespace cpa {
namespace {

/// 220 items over 12 labels, 40 workers of the paper's population mix —
/// enough answers per worker that κ rows are a mix of one-hot and spread.
Dataset FingerprintDataset(std::uint64_t seed) {
  Rng rng(seed);
  TruthConfig truth_config;
  truth_config.num_items = 220;
  truth_config.num_labels = 12;
  truth_config.num_clusters = 4;
  truth_config.correlation = 0.8;
  truth_config.mean_labels_per_item = 2.5;
  truth_config.max_labels_per_item = 5;
  auto truth = GenerateGroundTruth(truth_config, rng);
  EXPECT_TRUE(truth.ok());

  PopulationConfig population_config;
  population_config.num_workers = 40;
  population_config.num_labels = 12;
  population_config.mix = PopulationMix::PaperSimulationDefault();
  auto workers = GeneratePopulation(population_config, rng);
  EXPECT_TRUE(workers.ok());

  SimulationConfig sim_config;
  sim_config.answers_per_item = 6.0;
  sim_config.candidate_set_size = 12;
  auto answers = SimulateAnswers(truth.value(), workers.value(), sim_config, rng);
  EXPECT_TRUE(answers.ok());

  Dataset dataset;
  dataset.name = "fingerprint";
  dataset.num_labels = 12;
  dataset.answers = std::move(answers).value();
  dataset.ground_truth = std::move(truth.value().labels);
  return dataset;
}

class Fnv1a {
 public:
  void Add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void Add(const ConsensusSnapshot& snapshot) {
    Add(static_cast<std::uint64_t>(snapshot.predictions.size()));
    for (const LabelSet& labels : snapshot.predictions) {
      Add(static_cast<std::uint64_t>(labels.size()));
      for (LabelId c : labels.labels()) Add(static_cast<std::uint64_t>(c));
    }
    const Matrix& scores = snapshot.label_scores;
    Add(static_cast<std::uint64_t>(scores.rows()));
    Add(static_cast<std::uint64_t>(scores.cols()));
    for (std::size_t i = 0; i < scores.rows(); ++i) {
      for (double value : scores.Row(i)) Add(value);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

EngineConfig FingerprintConfig(const std::string& method, const Dataset& dataset,
                               std::size_t threads) {
  EngineConfig config = EngineConfig::ForDataset(method, dataset);
  config.cpa.max_communities = 6;
  config.cpa.max_clusters = 40;
  config.cpa.max_iterations = 12;
  config.svi.workers_per_batch = 5;
  config.num_threads = threads;
  return config;
}

/// Streams the dataset through CPA-SVI in worker batches, refreshing a
/// snapshot every third batch, and hashes every refresh plus the final one.
std::uint64_t StreamFingerprint(std::size_t threads) {
  const Dataset dataset = FingerprintDataset(20180417);
  auto engine =
      EngineRegistry::Global().Open(FingerprintConfig("CPA-SVI", dataset, threads));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return 0;
  Rng rng(41);
  const BatchPlan plan = MakeWorkerBatches(dataset.answers, 5, rng);
  Fnv1a hash;
  for (std::size_t b = 0; b < plan.num_batches(); ++b) {
    EXPECT_TRUE(engine.value()->Observe({&dataset.answers, plan.batches[b]}).ok());
    if (b % 3 == 2) {
      const auto snapshot = engine.value()->Snapshot();
      EXPECT_TRUE(snapshot.ok());
      if (snapshot.ok()) hash.Add(*snapshot.value());
    }
  }
  const auto final_snapshot = engine.value()->Finalize();
  EXPECT_TRUE(final_snapshot.ok());
  if (final_snapshot.ok()) hash.Add(*final_snapshot.value());
  return hash.value();
}

/// Observes everything in one batch and hashes the finalized fit.
std::uint64_t FinalizeFingerprint(const std::string& method, std::size_t threads) {
  const Dataset dataset = FingerprintDataset(7);
  auto engine =
      EngineRegistry::Global().Open(FingerprintConfig(method, dataset, threads));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return 0;
  EXPECT_TRUE(ObserveAll(*engine.value(), dataset.answers).ok());
  const auto final_snapshot = engine.value()->Finalize();
  EXPECT_TRUE(final_snapshot.ok());
  Fnv1a hash;
  if (final_snapshot.ok()) hash.Add(*final_snapshot.value());
  return hash.value();
}

constexpr std::uint64_t kSviStreamFingerprint = 0x4709ae4205c36185ull;
constexpr std::uint64_t kCpaFinalizeFingerprint = 0x2a4fccd2d98492faull;
constexpr std::uint64_t kCpaNoZFinalizeFingerprint = 0xf095137c40ccd2dcull;

TEST(FitFingerprintTest, SviStreamWithRefreshes) {
  EXPECT_EQ(StreamFingerprint(1), kSviStreamFingerprint);
  EXPECT_EQ(StreamFingerprint(3), kSviStreamFingerprint);
}

TEST(FitFingerprintTest, CpaOfflineFinalize) {
  EXPECT_EQ(FinalizeFingerprint("CPA", 1), kCpaFinalizeFingerprint);
  EXPECT_EQ(FinalizeFingerprint("CPA", 3), kCpaFinalizeFingerprint);
}

TEST(FitFingerprintTest, CpaNoZFinalize) {
  EXPECT_EQ(FinalizeFingerprint("CPA-NoZ", 1), kCpaNoZFinalizeFingerprint);
}

}  // namespace
}  // namespace cpa
