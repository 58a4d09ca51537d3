#include "core/cpa.h"

#include <gtest/gtest.h>

#include "baselines/majority_vote.h"
#include "simulation/dataset_factory.h"

namespace cpa {
namespace {

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

Dataset QuickDataset(PaperDatasetId id = PaperDatasetId::kImage) {
  FactoryOptions options;
  options.scale = 0.08;
  auto dataset = MakePaperDataset(id, options);
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset).value();
}

CpaOptions TunedOptions(const Dataset& dataset) {
  CpaOptions options = CpaOptions::Recommended(dataset.num_items(), dataset.num_labels);
  options.max_iterations = 25;
  return options;
}

TEST(CpaVariantNameTest, Names) {
  EXPECT_EQ(CpaVariantName(CpaVariant::kFull), "CPA");
  EXPECT_EQ(CpaVariantName(CpaVariant::kNoZ), "CPA-NoZ");
  EXPECT_EQ(CpaVariantName(CpaVariant::kNoL), "CPA-NoL");
}

TEST(CpaAggregatorTest, BeatsMajorityVoteOnSimulatedImageDataset) {
  const Dataset dataset = QuickDataset();
  CpaAggregator cpa(TunedOptions(dataset));
  MajorityVote mv;
  const auto cpa_result = cpa.Aggregate(dataset.answers, dataset.num_labels);
  const auto mv_result = mv.Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(cpa_result.ok()) << cpa_result.status().ToString();
  ASSERT_TRUE(mv_result.ok());
  const double cpa_f1 = MeanF1(cpa_result.value().predictions, dataset.ground_truth);
  const double mv_f1 = MeanF1(mv_result.value().predictions, dataset.ground_truth);
  EXPECT_GT(cpa_f1, mv_f1) << "CPA " << cpa_f1 << " vs MV " << mv_f1;
}

TEST(CpaAggregatorTest, ExposesModelAfterAggregate) {
  const Dataset dataset = QuickDataset(PaperDatasetId::kMovie);
  CpaAggregator cpa(TunedOptions(dataset));
  EXPECT_EQ(cpa.model(), nullptr);
  const auto result = cpa.Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(cpa.model(), nullptr);
  EXPECT_EQ(cpa.model()->num_items(), dataset.num_items());
  EXPECT_GT(cpa.fit_stats().iterations, 0u);
}

TEST(CpaAggregatorTest, NoZVariantUsesSingletonCommunities) {
  const Dataset dataset = QuickDataset(PaperDatasetId::kMovie);
  CpaAggregator no_z(TunedOptions(dataset), CpaVariant::kNoZ);
  const auto result = no_z.Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(no_z.model()->num_communities(), dataset.num_workers());
  EXPECT_EQ(no_z.name(), "CPA-NoZ");
}

TEST(CpaAggregatorTest, NoLVariantRunsOnLargeLabelUniverses) {
  // No L is singleton clusters plus the threshold every variant predicts
  // with; with no label-subset search it runs beyond the paper's movie-only
  // reach, here on image (C > 25). Its refusal for an oversized confusion
  // bank is `CpaModelTest.NoLParameterGuardRefusesHugeConfigurations`.
  const Dataset image = QuickDataset(PaperDatasetId::kImage);
  ASSERT_GT(image.num_labels, 25u);
  CpaAggregator no_l(TunedOptions(image), CpaVariant::kNoL);
  const auto result = no_l.Aggregate(image.answers, image.num_labels);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(no_l.name(), "CPA-NoL");
  const CpaModel& model = *no_l.model();
  ASSERT_EQ(model.num_clusters(), image.num_items());
  // ϕ stays the identity: every item alone in its own cluster.
  for (ItemId i = 0; i < image.num_items(); ++i) {
    EXPECT_EQ(model.phi.At(i, i), 1.0) << "item " << i;
  }
  ASSERT_EQ(result.value().predictions.size(), image.num_items());
  EXPECT_GT(MeanF1(result.value().predictions, image.ground_truth), 0.5);
}

TEST(CpaAggregatorTest, FullModelBeatsBothAblations) {
  // Fig 8's headline: the full model dominates No Z and No L. On a small
  // simulated movie dataset we check CPA >= max(ablations) - small slack.
  const Dataset dataset = QuickDataset(PaperDatasetId::kMovie);
  CpaAggregator full(TunedOptions(dataset));
  CpaAggregator no_z(TunedOptions(dataset), CpaVariant::kNoZ);
  CpaAggregator no_l(TunedOptions(dataset), CpaVariant::kNoL);
  const auto full_result = full.Aggregate(dataset.answers, dataset.num_labels);
  const auto no_z_result = no_z.Aggregate(dataset.answers, dataset.num_labels);
  const auto no_l_result = no_l.Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(full_result.ok());
  ASSERT_TRUE(no_z_result.ok());
  ASSERT_TRUE(no_l_result.ok());
  const double full_f1 = MeanF1(full_result.value().predictions, dataset.ground_truth);
  const double no_z_f1 = MeanF1(no_z_result.value().predictions, dataset.ground_truth);
  const double no_l_f1 = MeanF1(no_l_result.value().predictions, dataset.ground_truth);
  // Small-sample slack: on little-correlated movie data the ablations can
  // tie the full model; Fig 8's margins emerge at full scale.
  EXPECT_GE(full_f1, no_z_f1 - 0.06);
  EXPECT_GE(full_f1, no_l_f1 - 0.06);
}

TEST(CpaAggregatorTest, RejectsZeroLabels) {
  CpaAggregator cpa;
  EXPECT_FALSE(cpa.Aggregate(AnswerMatrix(2, 2), 0).ok());
}

TEST(CpaAggregatorTest, DeterministicAcrossInstances) {
  const Dataset dataset = QuickDataset(PaperDatasetId::kTopic);
  CpaAggregator a(TunedOptions(dataset));
  CpaAggregator b(TunedOptions(dataset));
  const auto result_a = a.Aggregate(dataset.answers, dataset.num_labels);
  const auto result_b = b.Aggregate(dataset.answers, dataset.num_labels);
  ASSERT_TRUE(result_a.ok());
  ASSERT_TRUE(result_b.ok());
  for (std::size_t i = 0; i < result_a.value().predictions.size(); ++i) {
    EXPECT_EQ(result_a.value().predictions[i], result_b.value().predictions[i]);
  }
}

}  // namespace
}  // namespace cpa
