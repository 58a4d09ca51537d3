#include "core/prediction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "data/dataset.h"

#include "core/sweep/answer_view.h"
#include "core/vi.h"
#include "util/special_functions.h"
#include "simulation/crowd_simulator.h"

namespace cpa {
namespace {

struct FittedWorld {
  Dataset dataset;
  CpaModel model;
};

FittedWorld FitWorld(std::uint64_t seed, const PopulationMix& mix,
                     std::size_t items = 150) {
  Rng rng(seed);
  TruthConfig truth_config;
  truth_config.num_items = items;
  truth_config.num_labels = 10;
  truth_config.num_clusters = 3;
  truth_config.correlation = 0.85;
  truth_config.mean_labels_per_item = 2.5;
  truth_config.max_labels_per_item = 5;
  auto truth = GenerateGroundTruth(truth_config, rng);
  EXPECT_TRUE(truth.ok());

  PopulationConfig population_config;
  population_config.num_workers = 30;
  population_config.num_labels = 10;
  population_config.mix = mix;
  auto workers = GeneratePopulation(population_config, rng);
  EXPECT_TRUE(workers.ok());

  SimulationConfig sim_config;
  sim_config.answers_per_item = 8.0;
  sim_config.candidate_set_size = 10;
  auto answers = SimulateAnswers(truth.value(), workers.value(), sim_config, rng);
  EXPECT_TRUE(answers.ok());

  FittedWorld world;
  world.dataset.name = "prediction-test";
  world.dataset.num_labels = 10;
  world.dataset.answers = std::move(answers).value();
  world.dataset.ground_truth = truth.value().labels;

  CpaOptions options;
  options.max_communities = 6;
  options.max_clusters = 48;
  options.max_iterations = 20;
  auto model = FitCpa(world.dataset.answers, 10, options);
  EXPECT_TRUE(model.ok());
  world.model = std::move(model).value();
  return world;
}

/// The scratch-form per-item pipeline over a test-local arena: ϕ viewed at
/// the prediction prune threshold and one scratch reused across items, as
/// each `PredictLabels` shard runs it.
struct ItemPipeline {
  explicit ItemPipeline(const CpaModel& fitted)
      : model(fitted),
        tables(internal::BuildPredictionTables(fitted)),
        activity{&fitted.phi, internal::kClusterPrune},
        scratch(arena, fitted.num_clusters(), fitted.num_communities()) {}

  /// The item's reweighted cluster log-weights (a view into the scratch,
  /// valid until the next call).
  std::span<const double> LogWeights(const AnswerMatrix& answers, ItemId item) {
    internal::ItemClusterLogWeights(model, tables, answers, item, activity, scratch);
    return scratch.log_weights;
  }

  /// Predicts `item` into `prediction` (sized for the model's items).
  void Predict(const AnswerMatrix& answers, ItemId item, CpaPrediction& prediction) {
    internal::PredictOneItem(model, tables, answers, activity, item, scratch,
                             prediction);
  }

  const CpaModel& model;
  ScratchArena arena;
  internal::PredictionTables tables;
  sweep::ClusterActivity activity;
  internal::PredictionScratch scratch;
};

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

TEST(PredictLabelsTest, AccurateOnReliableCrowd) {
  const FittedWorld world = FitWorld(3, PopulationMix::AllReliable());
  const auto prediction = PredictLabels(world.model, world.dataset.answers);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  EXPECT_GT(MeanF1(prediction.value().labels, world.dataset.ground_truth), 0.85);
}

TEST(PredictLabelsTest, ScoresAreProbabilities) {
  const FittedWorld world = FitWorld(5, PopulationMix::PaperSimulationDefault());
  const auto prediction = PredictLabels(world.model, world.dataset.answers);
  ASSERT_TRUE(prediction.ok());
  for (double score : prediction.value().scores.Data()) {
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST(PredictLabelsTest, UnansweredItemsStayEmpty) {
  const FittedWorld world = FitWorld(7, PopulationMix::AllReliable());
  // Build a sparse copy with item 0's answers removed.
  std::vector<std::size_t> keep;
  for (std::size_t index = 0; index < world.dataset.answers.num_answers(); ++index) {
    if (world.dataset.answers.answer(index).item != 0) keep.push_back(index);
  }
  const AnswerMatrix sparse = world.dataset.answers.Subset(keep);
  const auto model = FitCpa(sparse, 10, world.model.options());
  ASSERT_TRUE(model.ok());
  const auto prediction = PredictLabels(model.value(), sparse);
  ASSERT_TRUE(prediction.ok());
  EXPECT_TRUE(prediction.value().labels[0].empty());
}

TEST(PredictLabelsTest, SeenAnswerListsMatchTheSubsetMatrix) {
  // The online learner's form: each item's seen answers as flat indices
  // into the view of the whole stream, some dropped and the rest in an
  // order other than the stream's. It must equal predicting from the
  // matrix of exactly those answers, added item by item in list order.
  const FittedWorld world = FitWorld(13, PopulationMix::PaperSimulationDefault());
  const AnswerMatrix& stream = world.dataset.answers;
  const AnswerView view(stream);
  std::vector<std::vector<std::uint32_t>> seen(stream.num_items());
  Rng rng(5);
  for (ItemId i = 0; i < stream.num_items(); ++i) {
    for (std::uint32_t index : view.AnswersOfItem(i)) {
      if (rng.NextBounded(4) != 0) seen[i].push_back(index);
    }
    std::reverse(seen[i].begin(), seen[i].end());
  }
  seen[2].clear();  // an item with no seen answers stays empty
  std::vector<std::size_t> subset_order;
  for (const auto& list : seen) {
    subset_order.insert(subset_order.end(), list.begin(), list.end());
  }
  const AnswerMatrix subset = stream.Subset(subset_order);

  ThreadPool pool(3);
  const SweepScheduler scheduler(&pool);
  const auto from_lists = PredictLabels(world.model, view, seen, scheduler);
  const auto from_subset = PredictLabels(world.model, subset, scheduler);
  ASSERT_TRUE(from_lists.ok());
  ASSERT_TRUE(from_subset.ok());
  EXPECT_TRUE(from_lists.value().labels[2].empty());
  for (std::size_t i = 0; i < stream.num_items(); ++i) {
    EXPECT_EQ(from_lists.value().labels[i], from_subset.value().labels[i]) << i;
  }
  const auto a = from_lists.value().scores.Data();
  const auto b = from_subset.value().scores.Data();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);

  // An index outside the view, and lists that do not cover the model's
  // items, are refused.
  seen[3].push_back(static_cast<std::uint32_t>(view.num_answers()));
  EXPECT_FALSE(PredictLabels(world.model, view, seen, scheduler).ok());
  seen[3].pop_back();
  ASSERT_TRUE(PredictLabels(world.model, view, seen, scheduler).ok());
  seen.pop_back();
  EXPECT_FALSE(PredictLabels(world.model, view, seen, scheduler).ok());
}

TEST(PredictLabelsTest, DimensionMismatchIsError) {
  const FittedWorld world = FitWorld(9, PopulationMix::AllReliable(), 50);
  const AnswerMatrix wrong(3, 3);
  EXPECT_FALSE(PredictLabels(world.model, wrong).ok());
}

TEST(PredictLabelsTest, ParallelPredictionMatchesSequential) {
  const FittedWorld world = FitWorld(11, PopulationMix::PaperSimulationDefault());
  const auto sequential = PredictLabels(world.model, world.dataset.answers);
  ThreadPool pool(4);
  const auto parallel = PredictLabels(world.model, world.dataset.answers, &pool);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  for (std::size_t i = 0; i < sequential.value().labels.size(); ++i) {
    EXPECT_EQ(sequential.value().labels[i], parallel.value().labels[i]);
  }
}

TEST(PredictLabelsTest, ZeroAnswerItemStaysEmptyWithZeroScores) {
  // An item with no observed answers must instantiate the empty set and
  // leave an all-zero score row.
  const FittedWorld world = FitWorld(7, PopulationMix::AllReliable());
  std::vector<std::size_t> keep;
  for (std::size_t index = 0; index < world.dataset.answers.num_answers(); ++index) {
    if (world.dataset.answers.answer(index).item != 3) keep.push_back(index);
  }
  const AnswerMatrix sparse = world.dataset.answers.Subset(keep);
  const auto model = FitCpa(sparse, 10, world.model.options());
  ASSERT_TRUE(model.ok());
  const auto prediction = PredictLabels(model.value(), sparse);
  ASSERT_TRUE(prediction.ok());
  EXPECT_TRUE(prediction.value().labels[3].empty());
  for (double score : prediction.value().scores.Row(3)) {
    EXPECT_EQ(score, 0.0);
  }
}

TEST(PredictLabelsTest, ParallelAndArenaPathsAreBitIdentical) {
  // The memory-plane acceptance on the prediction side: sequential
  // (inline, lane-0 arena), 4-thread (per-lane arenas), and the
  // scratch-form per-item pipeline all produce identical labels and
  // bit-identical scores.
  const FittedWorld world = FitWorld(41, PopulationMix::PaperSimulationDefault());
  const auto sequential = PredictLabels(world.model, world.dataset.answers);
  ThreadPool pool(4);
  const auto parallel = PredictLabels(world.model, world.dataset.answers, &pool);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(sequential.value().labels.size(), parallel.value().labels.size());
  for (std::size_t i = 0; i < sequential.value().labels.size(); ++i) {
    EXPECT_EQ(sequential.value().labels[i], parallel.value().labels[i]) << i;
  }
  EXPECT_DOUBLE_EQ(sequential.value().scores.MaxAbsDiff(parallel.value().scores), 0.0);

  // The scratch form, one item at a time over a local arena (descending,
  // so every item follows a different one than in a shard), against the
  // sharded PredictLabels output.
  ItemPipeline pipeline(world.model);
  CpaPrediction items;
  items.labels.resize(world.dataset.num_items());
  items.scores.Reset(world.dataset.num_items(), world.model.num_labels());
  for (std::size_t i = world.dataset.num_items(); i-- > 0;) {
    pipeline.Predict(world.dataset.answers, static_cast<ItemId>(i), items);
  }
  for (std::size_t i = 0; i < items.labels.size(); ++i) {
    EXPECT_EQ(items.labels[i], sequential.value().labels[i]) << "item " << i;
  }
  EXPECT_EQ(items.scores.MaxAbsDiff(sequential.value().scores), 0.0);
}

/// The per-(answer, cluster) likelihood term exactly as the dense loop
/// computed it before the live-community rewrite: an M-wide row with −inf
/// for dead communities and ln κ_um + Σ_c ln ψ̂_tmc elsewhere, then
/// `LogSumExp`.
double DenseCommunityTerm(std::span<const double> kappa_row,
                          std::span<const double> log_psi_t, const LabelSet& labels) {
  const std::size_t M = kappa_row.size();
  std::vector<double> member_terms(M);
  for (std::size_t m = 0; m < M; ++m) {
    if (kappa_row[m] <= 0.0) {
      member_terms[m] = -std::numeric_limits<double>::infinity();
      continue;
    }
    double loglik = std::log(kappa_row[m]);
    for (LabelId c : labels) loglik += log_psi_t[c * M + m];
    member_terms[m] = loglik;
  }
  return LogSumExp(member_terms);
}

/// The item's dense cluster log-weights: ln ϕ_it on clusters above the
/// prune threshold (−inf elsewhere) plus every answer's community term.
std::vector<double> DenseItemLogWeights(const CpaModel& model,
                                        const internal::PredictionTables& tables,
                                        const AnswerMatrix& answers, ItemId item) {
  const std::size_t T = model.num_clusters();
  const std::vector<double> phi_row = model.phi.DenseRow(item);
  std::vector<double> log_weights(T, -std::numeric_limits<double>::infinity());
  for (std::size_t t = 0; t < T; ++t) {
    if (phi_row[t] >= internal::kClusterPrune) {
      log_weights[t] = std::log(phi_row[t]);
    }
  }
  for (std::size_t index : answers.AnswersOfItem(item)) {
    const Answer& a = answers.answer(index);
    for (std::size_t t = 0; t < T; ++t) {
      if (phi_row[t] < internal::kClusterPrune) continue;
      log_weights[t] += DenseCommunityTerm(model.kappa.Row(a.worker),
                                           tables.log_psi_mean.Row(t), a.labels);
    }
  }
  return log_weights;
}

TEST(ItemClusterLogWeightsTest, LiveCommunityPathEqualsDenseFormula) {
  FittedWorld world = FitWorld(17, PopulationMix::PaperSimulationDefault());
  CpaModel& model = world.model;
  const std::size_t M = model.num_communities();
  ASSERT_GE(M, 5u);
  // κ rows of every shape the live-community loop distinguishes: one-hot
  // and one live entry below 1 (the shortcut), spread over three and over
  // all communities (the log-sum-exp path), zero-holed at the first and
  // last community, and all-zero (every term −inf).
  const std::size_t U = model.num_workers();
  for (WorkerId u = 0; u < U; ++u) {
    auto row = model.kappa.Row(u);
    std::fill(row.begin(), row.end(), 0.0);
    switch (u % 7) {
      case 0:
        row[u % M] = 1.0;
        break;
      case 1:
        row[0] = 0.5;
        row[2] = 0.3;
        row[4] = 0.2;
        break;
      case 2:
        for (double& value : row) value = 1.0 / static_cast<double>(M);
        break;
      case 3:
        row[1] = 0.7;
        row[M - 2] = 0.3;
        break;
      case 4:
        row[M - 1] = 1.0;
        break;
      case 5:
        row[M - 1] = 0.37;
        break;
      default:
        break;  // all zero
    }
  }
  ItemPipeline pipeline(model);
  std::size_t compared = 0;
  for (ItemId i = 0; i < world.dataset.num_items(); ++i) {
    if (world.dataset.answers.AnswersOfItem(i).empty()) continue;
    const std::vector<double> dense =
        DenseItemLogWeights(model, pipeline.tables, world.dataset.answers, i);
    const auto log_weights = pipeline.LogWeights(world.dataset.answers, i);
    for (std::size_t t = 0; t < dense.size(); ++t) {
      EXPECT_EQ(log_weights[t], dense[t]) << "item " << i << " cluster " << t;
    }
    ++compared;
  }
  EXPECT_GT(compared, 100u);
}

TEST(PredictionCompletionTest, ClusterCompletionLiftsRecallOverRawAnswers) {
  // The R3 mechanism: labels missed by individual workers are completed
  // from the cluster profile. Compare CPA recall against the per-item
  // intersection of worker answers (a no-completion lower bound).
  PopulationMix sloppy_mix;
  sloppy_mix.reliable = 0.3;
  sloppy_mix.sloppy = 0.7;
  const FittedWorld world = FitWorld(29, sloppy_mix);
  const auto prediction = PredictLabels(world.model, world.dataset.answers);
  ASSERT_TRUE(prediction.ok());

  double cpa_recall = 0.0;
  std::size_t counted = 0;
  for (ItemId i = 0; i < world.dataset.num_items(); ++i) {
    const LabelSet& truth = world.dataset.ground_truth[i];
    if (truth.empty()) continue;
    cpa_recall += static_cast<double>(
                      prediction.value().labels[i].IntersectionSize(truth)) /
                  static_cast<double>(truth.size());
    ++counted;
  }
  cpa_recall /= static_cast<double>(counted);
  EXPECT_GT(cpa_recall, 0.5);
}

}  // namespace
}  // namespace cpa
