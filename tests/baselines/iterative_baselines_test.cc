/// Shared recovery and behaviour tests for the iterative baselines
/// (Dawid–Skene EM, cBCC) on simulated crowds where the correct
/// answer is known by construction.

#include <memory>

#include <gtest/gtest.h>

#include "baselines/cbcc.h"
#include "baselines/dawid_skene.h"
#include "baselines/majority_vote.h"
#include "simulation/crowd_simulator.h"
#include "simulation/dataset_factory.h"

namespace cpa {
namespace {

/// Mean set-F1 of predictions against the ground truth (local helper; the
/// eval module proper is exercised by its own tests).
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

Dataset NoisyCrowdDataset(std::uint64_t seed, const PopulationMix& mix,
                          std::size_t items = 150) {
  Rng rng(seed);
  TruthConfig truth_config;
  truth_config.num_items = items;
  truth_config.num_labels = 12;
  truth_config.num_clusters = 3;
  truth_config.correlation = 0.7;
  truth_config.mean_labels_per_item = 2.5;
  truth_config.max_labels_per_item = 5;
  auto truth = GenerateGroundTruth(truth_config, rng);
  EXPECT_TRUE(truth.ok());

  PopulationConfig population_config;
  population_config.num_workers = 40;
  population_config.num_labels = 12;
  population_config.mix = mix;
  auto workers = GeneratePopulation(population_config, rng);
  EXPECT_TRUE(workers.ok());

  SimulationConfig sim_config;
  sim_config.answers_per_item = 9.0;
  sim_config.candidate_set_size = 12;
  auto answers = SimulateAnswers(truth.value(), workers.value(), sim_config, rng);
  EXPECT_TRUE(answers.ok());

  Dataset dataset;
  dataset.name = "noisy-crowd";
  dataset.num_labels = 12;
  dataset.answers = std::move(answers).value();
  dataset.ground_truth = std::move(truth.value().labels);
  return dataset;
}

class IterativeBaselineTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Aggregator> MakeAggregator() const {
    switch (GetParam()) {
      case 0:
        return std::make_unique<DawidSkene>();
      case 1: {
        DawidSkeneOptions options;
        options.use_mislabeling_cost = true;
        return std::make_unique<DawidSkene>(options);
      }
      default:
        return std::make_unique<Cbcc>();
    }
  }
};

TEST_P(IterativeBaselineTest, NearPerfectOnReliableCrowd) {
  const Dataset dataset = NoisyCrowdDataset(11, PopulationMix::AllReliable());
  auto aggregator = MakeAggregator();
  const auto result = aggregator->Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(MeanF1(result.value().predictions, dataset.ground_truth), 0.9)
      << aggregator->name();
}

TEST_P(IterativeBaselineTest, BeatsMajorityVoteOnMixedCrowd) {
  const Dataset dataset =
      NoisyCrowdDataset(13, PopulationMix::PaperSimulationDefault(), 250);
  auto aggregator = MakeAggregator();
  const auto result = aggregator->Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(result.ok());
  MajorityVote mv;
  const auto mv_result = mv.Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(mv_result.ok());
  EXPECT_GE(MeanF1(result.value().predictions, dataset.ground_truth),
            MeanF1(mv_result.value().predictions, dataset.ground_truth) - 0.01)
      << aggregator->name();
}

TEST_P(IterativeBaselineTest, ScoresLieInUnitInterval) {
  const Dataset dataset = NoisyCrowdDataset(17, PopulationMix::PaperSimulationDefault());
  auto aggregator = MakeAggregator();
  const auto result = aggregator->Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(result.ok());
  for (double score : result.value().label_scores.Data()) {
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST_P(IterativeBaselineTest, DeterministicAcrossRuns) {
  const Dataset dataset = NoisyCrowdDataset(19, PopulationMix::PaperSimulationDefault());
  auto aggregator_a = MakeAggregator();
  auto aggregator_b = MakeAggregator();
  const auto a = aggregator_a->Aggregate(dataset.answers, dataset.num_labels);
  const auto b = aggregator_b->Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < a.value().predictions.size(); ++i) {
    EXPECT_EQ(a.value().predictions[i], b.value().predictions[i]);
  }
}

TEST_P(IterativeBaselineTest, RejectsZeroLabels) {
  auto aggregator = MakeAggregator();
  EXPECT_FALSE(aggregator->Aggregate(AnswerMatrix(1, 1), 0).ok());
}

TEST_P(IterativeBaselineTest, EmptyMatrixYieldsEmptyPredictions) {
  auto aggregator = MakeAggregator();
  const auto result = aggregator->Aggregate(AnswerMatrix(3, 2), 4);
  ASSERT_TRUE(result.ok());
  for (const LabelSet& p : result.value().predictions) EXPECT_TRUE(p.empty());
}

INSTANTIATE_TEST_SUITE_P(AllIterativeBaselines, IterativeBaselineTest,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0:
                               return std::string("DawidSkene");
                             case 1:
                               return std::string("DawidSkeneCost");
                             default:
                               return std::string("Cbcc");
                           }
                         });

TEST(DawidSkeneTest, RecoversWorkerQualityOrdering) {
  // Two workers: one perfect, one adversarial; DS should trust the perfect
  // worker after EM even though votes alone are 50/50.
  const Dataset dataset = NoisyCrowdDataset(23, PopulationMix::PaperSimulationDefault());
  DawidSkene ds;
  const auto result = ds.Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().stats.iterations, 0u);
}

TEST(DawidSkeneTest, CostVariantNameDiffers) {
  DawidSkeneOptions options;
  options.use_mislabeling_cost = true;
  EXPECT_EQ(DawidSkene(options).name(), "EM+cost");
  EXPECT_EQ(DawidSkene().name(), "EM");
}

TEST(CbccTest, RejectsZeroCommunities) {
  CbccOptions options;
  options.num_communities = 0;
  Cbcc cbcc(options);
  EXPECT_FALSE(cbcc.Aggregate(AnswerMatrix(1, 1), 2).ok());
}

TEST(CbccTest, RobustToSpamHeavyCrowd) {
  // 50% spammers: cBCC's community pooling should hold up clearly better
  // than MV.
  PopulationMix mix;
  mix.reliable = 0.4;
  mix.sloppy = 0.1;
  mix.uniform_spammer = 0.25;
  mix.random_spammer = 0.25;
  const Dataset dataset = NoisyCrowdDataset(29, mix, 250);
  Cbcc cbcc;
  MajorityVote mv;
  const auto cbcc_result = cbcc.Aggregate(dataset.answers, dataset.num_labels);
  const auto mv_result = mv.Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(cbcc_result.ok());
  ASSERT_TRUE(mv_result.ok());
  EXPECT_GT(MeanF1(cbcc_result.value().predictions, dataset.ground_truth),
            MeanF1(mv_result.value().predictions, dataset.ground_truth));
}

TEST(BaselineOrderingTest, PaperOrderingHoldsOnDefaultCrowd) {
  // Table 4's qualitative ordering on a mixed crowd: cBCC >= EM (allowing
  // a small tolerance since this is one random draw).
  const Dataset dataset =
      NoisyCrowdDataset(31, PopulationMix::PaperSimulationDefault(), 300);
  DawidSkene ds;
  Cbcc cbcc;
  const auto ds_result = ds.Aggregate(dataset.answers, dataset.num_labels);
  const auto cbcc_result = cbcc.Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(ds_result.ok());
  ASSERT_TRUE(cbcc_result.ok());
  EXPECT_GE(MeanF1(cbcc_result.value().predictions, dataset.ground_truth),
            MeanF1(ds_result.value().predictions, dataset.ground_truth) - 0.02);
}

}  // namespace
}  // namespace cpa
