/// End-to-end reproduction of the paper's motivating example (§2.1,
/// Table 1) and cross-module integration checks.

#include <gtest/gtest.h>

#include "baselines/majority_vote.h"
#include "core/cpa.h"
#include "data/dataset.h"
#include "data/dataset_io.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "simulation/dataset_factory.h"
#include "simulation/perturbations.h"

namespace cpa {
namespace {

/// Table 1, labels shifted to 0-based: 1:sky 2:plane 3:sun 4:water 5:tree.
Dataset PaperTableOne() {
  Dataset d;
  d.name = "table1";
  d.num_labels = 5;
  d.label_names = {"sky", "plane", "sun", "water", "tree"};
  d.answers = AnswerMatrix(4, 5);
  const auto add = [&](ItemId i, WorkerId u, LabelSet s) {
    EXPECT_TRUE(d.answers.Add(i, u, std::move(s)).ok());
  };
  add(0, 0, {3, 4});
  add(0, 1, {3, 4});
  add(0, 2, {3});
  add(0, 3, {0});
  add(0, 4, {4});
  add(1, 0, {1, 2});
  add(1, 1, {0, 3});
  add(1, 2, {3});
  add(1, 3, {1});
  add(1, 4, {2, 3});
  add(2, 0, {0, 1});
  add(2, 1, {3});
  add(2, 2, {3});
  add(2, 3, {2});
  add(2, 4, {3, 4});
  add(3, 0, {0, 1});
  add(3, 1, {1, 2});
  add(3, 2, {3});
  add(3, 3, {3});
  add(3, 4, {0, 1, 2});
  d.ground_truth = {LabelSet{4}, LabelSet{2, 3}, LabelSet{3, 4}, LabelSet{0, 1, 2}};
  return d;
}

TEST(PaperExampleTest, MajorityColumnMatchesTableOne) {
  const Dataset d = PaperTableOne();
  MajorityVote mv;
  const auto result = mv.Aggregate(d.answers, d.num_labels);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().predictions[0], LabelSet({3, 4}));  // {4,5}
  EXPECT_EQ(result.value().predictions[1], LabelSet({3}));     // {4}
  EXPECT_EQ(result.value().predictions[2], LabelSet({3}));     // {4}
  EXPECT_EQ(result.value().predictions[3], LabelSet({1}));     // {2}
}

TEST(PaperExampleTest, MajorityIsPartiallyIncorrectAndIncomplete) {
  // The paper's two observations about MV on Table 1.
  const Dataset d = PaperTableOne();
  MajorityVote mv;
  const auto result = mv.Aggregate(d.answers, d.num_labels);
  ASSERT_TRUE(result.ok());
  const SetMetrics metrics =
      ComputeSetMetrics(result.value().predictions, d.ground_truth);
  EXPECT_LT(metrics.precision, 1.0);  // partially incorrect (label 4 on i1)
  EXPECT_LT(metrics.recall, 1.0);     // partially incomplete (labels 1,3 on i4)
}

TEST(PaperExampleTest, CpaRunsOnTheTinyExample) {
  // Four items and five workers are far below the data CPA needs; the
  // test checks the full pipeline runs and emits sane output, not that it
  // beats MV here.
  const Dataset d = PaperTableOne();
  CpaOptions options;
  options.max_communities = 4;
  options.max_clusters = 4;
  options.max_iterations = 15;
  CpaAggregator cpa(options);
  const auto result = cpa.Aggregate(d.answers, d.num_labels);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().predictions.size(), 4u);
  for (const LabelSet& p : result.value().predictions) {
    EXPECT_FALSE(p.empty());
    EXPECT_LE(p.MaxLabel(), 4u);
  }
}

TEST(IntegrationTest, DatasetRoundTripPreservesExperimentResults) {
  FactoryOptions options;
  options.scale = 0.05;
  auto dataset = MakePaperDataset(PaperDatasetId::kMovie, options);
  ASSERT_TRUE(dataset.ok());
  const std::string path = testing::TempDir() + "/cpa_integration_roundtrip.tsv";
  ASSERT_TRUE(SaveDataset(dataset.value(), path).ok());
  const auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok());

  MajorityVote mv_a;
  MajorityVote mv_b;
  const auto original = RunExperiment(mv_a, dataset.value());
  const auto reloaded = RunExperiment(mv_b, loaded.value());
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_DOUBLE_EQ(original.value().metrics.precision,
                   reloaded.value().metrics.precision);
  EXPECT_DOUBLE_EQ(original.value().metrics.recall, reloaded.value().metrics.recall);
}

TEST(IntegrationTest, SpammerInjectionDegradesMvMoreThanCpa) {
  // The Fig 4 mechanism end-to-end at test scale.
  FactoryOptions factory_options;
  factory_options.scale = 0.1;
  auto dataset = MakePaperDataset(PaperDatasetId::kTopic, factory_options);
  ASSERT_TRUE(dataset.ok());
  Rng rng(7);
  SpammerInjectionOptions spam;
  spam.spam_answer_fraction = 0.4;
  const auto spammed = InjectSpammers(dataset.value(), spam, rng);
  ASSERT_TRUE(spammed.ok());

  const auto run = [&](const std::string& name, const Dataset& d) {
    EngineConfig config = EngineConfig::ForDataset(name, d);
    config.cpa.max_iterations = 25;
    auto result = RunExperiment(config, d);
    EXPECT_TRUE(result.ok());
    return result.value().metrics.F1();
  };
  const double mv_drop = run("MV", dataset.value()) - run("MV", spammed.value());
  const double cpa_drop = run("CPA", dataset.value()) - run("CPA", spammed.value());
  EXPECT_LT(cpa_drop, mv_drop + 0.02);
}

TEST(IntegrationTest, FitCpaPredictionsIdenticalForOneAndFourThreads) {
  // The sweep scheduler's deterministic partials (core/sweep/) make the
  // whole fit bit-identical for any thread count: exact equality of the
  // posterior and of every instantiated prediction, paper example included.
  const Dataset tiny = PaperTableOne();
  FactoryOptions factory_options;
  factory_options.scale = 0.08;
  auto simulated = MakePaperDataset(PaperDatasetId::kTopic, factory_options);
  ASSERT_TRUE(simulated.ok());
  ThreadPool pool(4);
  const Dataset& simulated_ref = simulated.value();
  for (const Dataset* d : {&tiny, &simulated_ref}) {
    CpaOptions options = CpaOptions::Recommended(d->num_items(), d->num_labels);
    options.max_iterations = 15;
    const auto sequential = SolveCpaOffline(d->answers, d->num_labels, options);
    ASSERT_TRUE(sequential.ok());
    const auto parallel = SolveCpaOffline(d->answers, d->num_labels, options,
                                          CpaVariant::kFull, &pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_DOUBLE_EQ(
        sequential.value().model.kappa.MaxAbsDiff(parallel.value().model.kappa), 0.0);
    EXPECT_DOUBLE_EQ(
        MaxAbsDiff(sequential.value().model.phi, parallel.value().model.phi), 0.0);
    ASSERT_EQ(sequential.value().predictions.size(), parallel.value().predictions.size());
    for (std::size_t i = 0; i < sequential.value().predictions.size(); ++i) {
      EXPECT_EQ(sequential.value().predictions[i], parallel.value().predictions[i]);
    }
  }
}

TEST(IntegrationTest, OnlineOfflineAgreeOnFinalPredictionsQuality) {
  FactoryOptions factory_options;
  factory_options.scale = 0.1;
  auto dataset = MakePaperDataset(PaperDatasetId::kMovie, factory_options);
  ASSERT_TRUE(dataset.ok());
  const Dataset& d = dataset.value();
  CpaOptions options = CpaOptions::Recommended(d.num_items(), d.num_labels);
  options.max_iterations = 25;

  CpaAggregator offline(options);
  const auto offline_result = RunExperiment(offline, d);
  ASSERT_TRUE(offline_result.ok());

  auto online = CpaOnline::Create(d.num_items(), d.num_workers(), d.num_labels,
                                  options, SviOptions());
  ASSERT_TRUE(online.ok());
  Rng rng(11);
  const BatchPlan plan = MakeWorkerBatches(d.answers, 10, rng);
  for (const auto& batch : plan.batches) {
    ASSERT_TRUE(online.value().ObserveBatch(d.answers, batch).ok());
  }
  const auto prediction = online.value().Predict(d.answers);
  ASSERT_TRUE(prediction.ok());
  const SetMetrics online_metrics =
      ComputeSetMetrics(prediction.value().labels, d.ground_truth);
  EXPECT_GT(online_metrics.F1(), offline_result.value().metrics.F1() - 0.12);
}

}  // namespace
}  // namespace cpa
