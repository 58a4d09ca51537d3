#include "core/svi.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"

#include "core/cpa.h"
#include "core/sweep/sweep_kernels.h"
#include "engine/checkpoint.h"
#include "simulation/crowd_simulator.h"
#include "simulation/perturbations.h"
#include "util/string_utils.h"

namespace cpa {
namespace {

Dataset OnlineDataset(std::uint64_t seed, std::size_t items = 250) {
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
  population_config.num_workers = 40;
  population_config.num_labels = 10;
  population_config.mix = PopulationMix::PaperSimulationDefault();
  auto workers = GeneratePopulation(population_config, rng);
  EXPECT_TRUE(workers.ok());

  SimulationConfig sim_config;
  sim_config.answers_per_item = 8.0;
  sim_config.candidate_set_size = 10;
  auto answers = SimulateAnswers(truth.value(), workers.value(), sim_config, rng);
  EXPECT_TRUE(answers.ok());

  Dataset dataset;
  dataset.name = "svi-test";
  dataset.num_labels = 10;
  dataset.answers = std::move(answers).value();
  dataset.ground_truth = std::move(truth.value().labels);
  return dataset;
}

CpaOptions FastOptions() {
  CpaOptions options;
  options.max_communities = 6;
  options.max_clusters = 48;
  options.max_iterations = 20;
  return options;
}

double MeanF1(const std::vector<LabelSet>& predictions,
              const std::vector<LabelSet>& truth) {
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i].empty()) continue;
    const double inter = static_cast<double>(predictions[i].IntersectionSize(truth[i]));
    const double p = predictions[i].empty() ? 0.0 : inter / predictions[i].size();
    const double r = inter / truth[i].size();
    total += (p + r > 0.0) ? 2.0 * p * r / (p + r) : 0.0;
    ++counted;
  }
  return counted > 0 ? total / counted : 0.0;
}

TEST(SviOptionsTest, RejectsZeroWorkersPerBatch) {
  SviOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.workers_per_batch = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(CpaOnlineTest, ConsumesAllBatchesAndCounts) {
  const Dataset dataset = OnlineDataset(3);
  auto online = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                  FastOptions(), SviOptions());
  ASSERT_TRUE(online.ok());
  Rng rng(7);
  const BatchPlan plan = MakeWorkerBatches(dataset.answers, 8, rng);
  for (const auto& batch : plan.batches) {
    ASSERT_TRUE(online.value().ObserveBatch(dataset.answers, batch).ok());
  }
  EXPECT_EQ(online.value().batches_seen(), plan.num_batches());
  EXPECT_EQ(online.value().answers_seen(), dataset.answers.num_answers());
}

TEST(CpaOnlineTest, LearningRateDecays) {
  const Dataset dataset = OnlineDataset(5, 100);
  auto online = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                  FastOptions(), SviOptions());
  ASSERT_TRUE(online.ok());
  Rng rng(7);
  const BatchPlan plan = MakeWorkerBatches(dataset.answers, 5, rng);
  double previous_rate = 1.0;
  for (const auto& batch : plan.batches) {
    ASSERT_TRUE(online.value().ObserveBatch(dataset.answers, batch).ok());
    EXPECT_LT(online.value().last_learning_rate(), previous_rate);
    previous_rate = online.value().last_learning_rate();
  }
  // omega_b = (1+b)^-r.
  EXPECT_NEAR(previous_rate,
              std::pow(1.0 + static_cast<double>(plan.num_batches()), -0.875), 1e-12);
}

TEST(CpaOnlineTest, OnlineAccuracyApproachesOffline) {
  const Dataset dataset = OnlineDataset(7, 300);
  // Offline reference.
  CpaAggregator offline(FastOptions());
  const auto offline_result = offline.Aggregate(dataset.answers, 10);
  ASSERT_TRUE(offline_result.ok());
  const double offline_f1 =
      MeanF1(offline_result.value().predictions, dataset.ground_truth);

  // Online pass over worker batches.
  auto online = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                  FastOptions(), SviOptions());
  ASSERT_TRUE(online.ok());
  Rng rng(11);
  const BatchPlan plan = MakeWorkerBatches(dataset.answers, 8, rng);
  for (const auto& batch : plan.batches) {
    ASSERT_TRUE(online.value().ObserveBatch(dataset.answers, batch).ok());
  }
  const auto prediction = online.value().Predict(dataset.answers);
  ASSERT_TRUE(prediction.ok());
  const double online_f1 = MeanF1(prediction.value().labels, dataset.ground_truth);

  // The paper's finding (Table 5): online is slightly worse than offline
  // but competitive. Allow a modest gap and require non-trivial accuracy.
  EXPECT_GT(online_f1, 0.45);
  EXPECT_GT(online_f1, offline_f1 - 0.15);
}

TEST(CpaOnlineTest, AccuracyImprovesWithArrivingData) {
  const Dataset dataset = OnlineDataset(13, 300);
  auto online = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                  FastOptions(), SviOptions());
  ASSERT_TRUE(online.ok());
  Rng rng(17);
  const BatchPlan plan = MakeArrivalSchedule(dataset.answers, 10, rng);

  // F1 after 30% of the data vs after 100%.
  double early_f1 = 0.0;
  double late_f1 = 0.0;
  for (std::size_t step = 0; step < plan.num_batches(); ++step) {
    ASSERT_TRUE(online.value().ObserveBatch(dataset.answers, plan.batches[step]).ok());
    if (step == 2 || step + 1 == plan.num_batches()) {
      const auto prediction = online.value().Predict(dataset.answers);
      ASSERT_TRUE(prediction.ok());
      const double f1 = MeanF1(prediction.value().labels, dataset.ground_truth);
      if (step == 2) {
        early_f1 = f1;
      } else {
        late_f1 = f1;
      }
    }
  }
  EXPECT_GT(late_f1, early_f1);
}

TEST(CpaOnlineTest, RejectsOutOfRangeBatchIndices) {
  const Dataset dataset = OnlineDataset(19, 50);
  auto online = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                  FastOptions(), SviOptions());
  ASSERT_TRUE(online.ok());
  const std::vector<std::size_t> bogus = {dataset.answers.num_answers() + 5};
  EXPECT_FALSE(online.value().ObserveBatch(dataset.answers, bogus).ok());
}

TEST(CpaOnlineTest, EmptyBatchIsNoop) {
  const Dataset dataset = OnlineDataset(23, 50);
  auto online = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                  FastOptions(), SviOptions());
  ASSERT_TRUE(online.ok());
  ASSERT_TRUE(online.value().ObserveBatch(dataset.answers, {}).ok());
  EXPECT_EQ(online.value().batches_seen(), 0u);
}

TEST(CpaOnlineTest, DeterministicForSameBatchOrder) {
  const Dataset dataset = OnlineDataset(29, 150);
  Rng rng_a(31);
  Rng rng_b(31);
  const BatchPlan plan_a = MakeWorkerBatches(dataset.answers, 8, rng_a);
  const BatchPlan plan_b = MakeWorkerBatches(dataset.answers, 8, rng_b);

  auto online_a = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                    FastOptions(), SviOptions());
  auto online_b = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                    FastOptions(), SviOptions());
  ASSERT_TRUE(online_a.ok());
  ASSERT_TRUE(online_b.ok());
  for (std::size_t b = 0; b < plan_a.num_batches(); ++b) {
    ASSERT_TRUE(online_a.value().ObserveBatch(dataset.answers, plan_a.batches[b]).ok());
    ASSERT_TRUE(online_b.value().ObserveBatch(dataset.answers, plan_b.batches[b]).ok());
  }
  EXPECT_DOUBLE_EQ(
      online_a.value().model().kappa.MaxAbsDiff(online_b.value().model().kappa), 0.0);
  EXPECT_DOUBLE_EQ(
      online_a.value().model().zeta.MaxAbsDiff(online_b.value().model().zeta), 0.0);
}

TEST(CpaOnlineTest, ParallelObserveMatchesSequential) {
  const Dataset dataset = OnlineDataset(37, 150);
  Rng rng(41);
  const BatchPlan plan = MakeWorkerBatches(dataset.answers, 10, rng);

  auto sequential = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                      FastOptions(), SviOptions());
  ThreadPool pool(4);
  auto parallel = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                    FastOptions(), SviOptions(), &pool);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  for (const auto& batch : plan.batches) {
    ASSERT_TRUE(sequential.value().ObserveBatch(dataset.answers, batch).ok());
    ASSERT_TRUE(parallel.value().ObserveBatch(dataset.answers, batch).ok());
  }
  EXPECT_DOUBLE_EQ(
      sequential.value().model().kappa.MaxAbsDiff(parallel.value().model().kappa), 0.0);
  EXPECT_DOUBLE_EQ(
      MaxAbsDiff(sequential.value().model().phi, parallel.value().model().phi), 0.0);
}

TEST(CpaOnlineTest, CalibratesTheSameThetaPriorAsTheOfflineFit) {
  // One matrix, calibrated two ways: the offline fit reads the whole
  // matrix, and the learner's first batch holds every answer.
  const Dataset dataset = OnlineDataset(53, 80);
  CpaOptions options = FastOptions();
  options.max_iterations = 1;
  const auto offline = FitCpa(dataset.answers, 10, options);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();

  auto online = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                  options, SviOptions());
  ASSERT_TRUE(online.ok());
  EXPECT_EQ(online.value().model().theta_prior_mean(), 0.1);
  std::vector<std::size_t> all(dataset.answers.num_answers());
  std::iota(all.begin(), all.end(), std::size_t{0});
  ASSERT_TRUE(online.value().ObserveBatch(dataset.answers, all).ok());

  const double offline_mean = offline.value().theta_prior_mean();
  const double online_mean = online.value().model().theta_prior_mean();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(offline_mean),
            std::bit_cast<std::uint64_t>(online_mean))
      << StrFormat("offline %.17g, online %.17g", offline_mean, online_mean);
  const double expected = static_cast<double>(dataset.answers.TotalLabelAssignments()) /
                          static_cast<double>(dataset.answers.num_answers()) / 10.0;
  EXPECT_EQ(offline_mean, std::clamp(expected, 0.005, 0.45));
  EXPECT_NE(offline_mean, 0.1);
}

TEST(CpaOnlineTest, RelativeReliabilityMatchesTheOnlineFormula) {
  // The online learner's weighting: only the scored batch workers
  // (agreement >= 0) are rewritten, everyone else keeps the weight an
  // earlier batch gave them. `volatile` keeps the exponent a run-time
  // value, as it is in a fit.
  const volatile double sharpness_source = FastOptions().reliability_sharpness;
  const double sharpness = sharpness_source;
  const std::vector<double> agreements = {-1.0, 0.42, 0.9, -1.0, 0.0, 0.66, 0.13, -1.0};
  const std::vector<WorkerId> workers = {1, 2, 4, 5, 6};
  const std::vector<double> earlier = {0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  std::vector<double> weights = earlier;
  sweep::WeighRelativeReliability(agreements, sharpness, weights);

  std::vector<double> expected = earlier;
  double best = 0.0;
  for (WorkerId u : workers) best = std::max(best, agreements[u]);
  for (WorkerId u : workers) {
    expected[u] = std::max(std::pow(agreements[u] / best, sharpness), 0.05);
  }
  for (std::size_t u = 0; u < weights.size(); ++u) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(weights[u]),
              std::bit_cast<std::uint64_t>(expected[u]))
        << "worker " << u;
  }

  // A batch whose workers agree with nothing leaves every weight alone.
  const std::vector<double> silent = {-1.0, 0.0, 5e-10};
  std::vector<double> untouched = {0.3, 0.4, 0.5};
  sweep::WeighRelativeReliability(silent, sharpness, untouched);
  EXPECT_EQ(untouched, (std::vector<double>{0.3, 0.4, 0.5}));
}

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(CpaOnlineTest, CheckpointBytesMatchGolden) {
  // Size and FNV-1a hash of a learner's checkpoint after a fixed stream:
  // pins the online fit and the checkpoint layout, whose retired fields
  // (seen-counts, per-cluster consensus sets, label-set-size counts and
  // prior) are written as fixed placeholders, to the byte. A restore and
  // re-save must reproduce the same bytes.
  const Dataset dataset = OnlineDataset(43, 120);
  Rng rng(47);
  const BatchPlan plan = MakeWorkerBatches(dataset.answers, 10, rng);
  auto online = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                  FastOptions(), SviOptions());
  ASSERT_TRUE(online.ok());
  for (const auto& batch : plan.batches) {
    ASSERT_TRUE(online.value().ObserveBatch(dataset.answers, batch).ok());
  }
  CheckpointWriter writer;
  online.value().SaveState(writer);
  const std::string& bytes = writer.bytes();
  EXPECT_EQ(bytes.size(), 105092u);
  EXPECT_EQ(Fnv1a(bytes), 0xd830243d847838e0ULL) << StrFormat(
      "0x%016llx", static_cast<unsigned long long>(Fnv1a(bytes)));

  auto restored = CpaOnline::Create(dataset.num_items(), dataset.num_workers(), 10,
                                    FastOptions(), SviOptions());
  ASSERT_TRUE(restored.ok());
  CheckpointReader reader(bytes);
  ASSERT_TRUE(restored.value().RestoreState(reader).ok());
  CheckpointWriter resaved;
  restored.value().SaveState(resaved);
  EXPECT_TRUE(resaved.bytes() == bytes);
}

}  // namespace
}  // namespace cpa
