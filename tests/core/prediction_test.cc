#include "core/prediction.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "data/dataset.h"

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
                     PredictionMode mode = PredictionMode::kBernoulliProfile,
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
  options.prediction_mode = mode;
  auto model = FitCpa(world.dataset.answers, 10, options);
  EXPECT_TRUE(model.ok());
  world.model = std::move(model).value();
  return world;
}

/// The scratch-form per-item pipeline over a test-local arena: the activity
/// list at the prediction prune threshold and one scratch reused across
/// items, as each `PredictLabels` shard runs it.
struct ItemPipeline {
  explicit ItemPipeline(const CpaModel& fitted)
      : model(fitted),
        tables(internal::BuildPredictionTables(fitted)),
        scratch(arena, fitted.num_clusters(), fitted.num_communities()) {
    sweep::BuildClusterActivity(fitted.phi, SweepScheduler(nullptr), activity,
                                internal::kClusterPrune);
  }

  /// The item's reweighted cluster log-weights (a view into the scratch,
  /// valid until the next call).
  std::span<const double> LogWeights(const AnswerMatrix& answers, ItemId item) {
    internal::ItemClusterLogWeights(model, tables, answers, item, activity, scratch);
    return scratch.log_weights;
  }

  std::vector<LabelId> Candidates(const AnswerMatrix& answers, ItemId item,
                                  std::span<const double> log_weights) {
    internal::CollectCandidates(tables, answers, item, log_weights, scratch);
    return scratch.candidates;
  }

  LabelSet Greedy(std::span<const double> log_weights,
                  std::span<const LabelId> candidates) {
    return internal::GreedyInstantiate(tables, log_weights, candidates, scratch);
  }

  LabelSet Exhaustive(std::span<const double> log_weights,
                      std::span<const LabelId> candidates, std::size_t max_size) {
    return internal::ExhaustiveInstantiate(tables, log_weights, candidates, max_size,
                                           scratch);
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

TEST(PredictLabelsTest, MultinomialSizePriorModeIsReasonableButSizeBiased) {
  // The paper-literal multinomial mode systematically under-predicts large
  // sets: clearly usable, but measurably below the
  // Bernoulli default on the same data.
  const FittedWorld multinomial =
      FitWorld(3, PopulationMix::AllReliable(), PredictionMode::kMultinomialSizePrior);
  const FittedWorld bernoulli =
      FitWorld(3, PopulationMix::AllReliable(), PredictionMode::kBernoulliProfile);
  const auto multinomial_prediction =
      PredictLabels(multinomial.model, multinomial.dataset.answers);
  const auto bernoulli_prediction =
      PredictLabels(bernoulli.model, bernoulli.dataset.answers);
  ASSERT_TRUE(multinomial_prediction.ok());
  ASSERT_TRUE(bernoulli_prediction.ok());
  const double multinomial_f1 =
      MeanF1(multinomial_prediction.value().labels, multinomial.dataset.ground_truth);
  const double bernoulli_f1 =
      MeanF1(bernoulli_prediction.value().labels, bernoulli.dataset.ground_truth);
  EXPECT_GT(multinomial_f1, 0.5);
  EXPECT_GE(bernoulli_f1, multinomial_f1);
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

TEST(PredictLabelsTest, DimensionMismatchIsError) {
  const FittedWorld world = FitWorld(9, PopulationMix::AllReliable(),
                                     PredictionMode::kMultinomialSizePrior, 50);
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

TEST(GreedyVsExhaustiveTest, GreedyMatchesOracleOnMostItems) {
  const FittedWorld world = FitWorld(13, PopulationMix::PaperSimulationDefault(),
                                     PredictionMode::kMultinomialSizePrior, 80);
  ItemPipeline pipeline(world.model);
  std::size_t matches = 0;
  std::size_t compared = 0;
  double greedy_total = 0.0;
  double oracle_total = 0.0;
  for (ItemId i = 0; i < 80; ++i) {
    if (world.dataset.answers.AnswersOfItem(i).empty()) continue;
    const auto log_weights = pipeline.LogWeights(world.dataset.answers, i);
    auto candidates = pipeline.Candidates(world.dataset.answers, i, log_weights);
    if (candidates.size() > 14) candidates.resize(14);  // keep the oracle cheap
    const LabelSet greedy = pipeline.Greedy(log_weights, candidates);
    const LabelSet oracle = pipeline.Exhaustive(
        log_weights, candidates, pipeline.tables.log_size_prior.cols() - 1);
    ++compared;
    matches += (greedy == oracle);
    greedy_total += static_cast<double>(greedy.size());
    oracle_total += static_cast<double>(oracle.size());
  }
  ASSERT_GT(compared, 0u);
  // Greedy is not exact, but must agree with the oracle on the vast
  // majority of items and produce similar set sizes overall.
  EXPECT_GT(static_cast<double>(matches) / compared, 0.85);
  EXPECT_NEAR(greedy_total / compared, oracle_total / compared, 0.5);
}

TEST(GreedyInstantiateTest, EmptyCandidatesGiveEmptySet) {
  const FittedWorld world = FitWorld(17, PopulationMix::AllReliable(),
                                     PredictionMode::kMultinomialSizePrior, 40);
  ItemPipeline pipeline(world.model);
  const auto log_weights = pipeline.LogWeights(world.dataset.answers, 0);
  EXPECT_TRUE(pipeline.Greedy(log_weights, {}).empty());
}

TEST(ExhaustiveInstantiateTest, RespectsMaxSize) {
  const FittedWorld world = FitWorld(19, PopulationMix::AllReliable(),
                                     PredictionMode::kMultinomialSizePrior, 40);
  ItemPipeline pipeline(world.model);
  const auto log_weights = pipeline.LogWeights(world.dataset.answers, 0);
  const std::vector<LabelId> candidates = {0, 1, 2, 3, 4, 5};
  const LabelSet set = pipeline.Exhaustive(log_weights, candidates, 2);
  EXPECT_LE(set.size(), 2u);
}

TEST(CollectCandidatesTest, ContainsAnsweredLabels) {
  const FittedWorld world = FitWorld(23, PopulationMix::AllReliable(),
                                     PredictionMode::kMultinomialSizePrior, 60);
  ItemPipeline pipeline(world.model);
  for (ItemId i = 0; i < 10; ++i) {
    const auto indices = world.dataset.answers.AnswersOfItem(i);
    if (indices.empty()) continue;
    const auto log_weights = pipeline.LogWeights(world.dataset.answers, i);
    const auto candidates = pipeline.Candidates(world.dataset.answers, i, log_weights);
    for (std::size_t index : indices) {
      for (LabelId c : world.dataset.answers.answer(index).labels) {
        EXPECT_NE(std::find(candidates.begin(), candidates.end(), c), candidates.end())
            << "label " << c << " missing from candidates of item " << i;
      }
    }
  }
}

TEST(PredictLabelsTest, ZeroAnswerItemStaysEmptyInBothModes) {
  // An item with no observed answers must instantiate the empty set — in
  // the Bernoulli default and in the multinomial greedy mode — and leave
  // an all-zero score row.
  for (PredictionMode mode :
       {PredictionMode::kBernoulliProfile, PredictionMode::kMultinomialSizePrior}) {
    const FittedWorld world = FitWorld(7, PopulationMix::AllReliable(), mode);
    std::vector<std::size_t> keep;
    for (std::size_t index = 0; index < world.dataset.answers.num_answers();
         ++index) {
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
}

TEST(GreedyInstantiateTest, WeightsPrunedToSingleClusterStillInstantiate) {
  // One dominant cluster: everything else falls below the prune threshold
  // after normalisation, so the greedy must run on exactly one active
  // cluster and still produce that cluster's labels.
  const FittedWorld world = FitWorld(31, PopulationMix::AllReliable(),
                                     PredictionMode::kMultinomialSizePrior, 60);
  ItemPipeline pipeline(world.model);
  std::vector<double> log_weights(world.model.num_clusters(), -1e6);
  log_weights[1] = 0.0;  // all the mass on cluster 1
  const std::vector<LabelId> candidates = pipeline.tables.top_labels[1];
  const LabelSet greedy = pipeline.Greedy(log_weights, candidates);
  EXPECT_EQ(pipeline.scratch.active_count, 1u);
  EXPECT_EQ(pipeline.scratch.active_ids[0], 1u);
  // The single-cluster oracle agrees.
  EXPECT_EQ(greedy, pipeline.Exhaustive(log_weights, candidates,
                                        pipeline.tables.log_size_prior.cols() - 1));
}

TEST(GreedyInstantiateTest, CandidatePoolBeyondSizePriorSupportIsCapped) {
  // More candidates than the size prior supports: SetScore returns -inf
  // for any n >= log_size_prior.cols(), so the instantiated set must stop
  // strictly below the support bound no matter how many candidates score
  // well.
  const FittedWorld world = FitWorld(37, PopulationMix::AllReliable(),
                                     PredictionMode::kMultinomialSizePrior, 60);
  ItemPipeline pipeline(world.model);
  const std::size_t support = pipeline.tables.log_size_prior.cols();
  ASSERT_GT(support, 1u);
  const auto log_weights = pipeline.LogWeights(world.dataset.answers, 0);
  std::vector<LabelId> all_labels(world.model.num_labels());
  std::iota(all_labels.begin(), all_labels.end(), 0u);
  ASSERT_GE(all_labels.size(), support);
  EXPECT_LT(pipeline.Greedy(log_weights, all_labels).size(), support);
  EXPECT_LT(pipeline.Exhaustive(log_weights, all_labels, all_labels.size()).size(),
            support);
}

TEST(PredictLabelsTest, ParallelAndArenaPathsAreBitIdentical) {
  // The memory-plane acceptance on the prediction side: sequential
  // (inline, lane-0 arena), 4-thread (per-lane arenas), and the
  // scratch-form per-item pipeline all produce identical labels and
  // bit-identical scores — in both prediction modes.
  for (PredictionMode mode :
       {PredictionMode::kBernoulliProfile, PredictionMode::kMultinomialSizePrior}) {
    const FittedWorld world = FitWorld(41, PopulationMix::PaperSimulationDefault(),
                                       mode);
    const auto sequential = PredictLabels(world.model, world.dataset.answers);
    ThreadPool pool(4);
    const auto parallel = PredictLabels(world.model, world.dataset.answers, &pool);
    ASSERT_TRUE(sequential.ok());
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(sequential.value().labels.size(), parallel.value().labels.size());
    for (std::size_t i = 0; i < sequential.value().labels.size(); ++i) {
      EXPECT_EQ(sequential.value().labels[i], parallel.value().labels[i]) << i;
    }
    EXPECT_DOUBLE_EQ(
        sequential.value().scores.MaxAbsDiff(parallel.value().scores), 0.0);

    if (mode != PredictionMode::kMultinomialSizePrior) continue;
    // The scratch forms, one item at a time over a local arena, against
    // the sharded PredictLabels output.
    ItemPipeline pipeline(world.model);
    for (ItemId i = 0; i < world.dataset.num_items(); ++i) {
      if (world.dataset.answers.AnswersOfItem(i).empty()) continue;
      const auto log_weights = pipeline.LogWeights(world.dataset.answers, i);
      const auto candidates =
          pipeline.Candidates(world.dataset.answers, i, log_weights);
      EXPECT_EQ(pipeline.Greedy(log_weights, candidates), sequential.value().labels[i])
          << "item " << i;
    }
  }
}

/// The per-(answer, cluster) likelihood term exactly as the dense loop
/// computed it before the live-community rewrite: an M-wide row with −inf
/// for dead communities and ln κ_um + Σ_c ln ψ̂_tmc elsewhere, then
/// `LogSumExp`.
double DenseCommunityTerm(std::span<const double> kappa_row, const Matrix& log_psi_t,
                          const LabelSet& labels) {
  std::vector<double> member_terms(kappa_row.size());
  for (std::size_t m = 0; m < kappa_row.size(); ++m) {
    if (kappa_row[m] <= 0.0) {
      member_terms[m] = -std::numeric_limits<double>::infinity();
      continue;
    }
    const auto psi_row = log_psi_t.Row(m);
    double loglik = std::log(kappa_row[m]);
    for (LabelId c : labels) loglik += psi_row[c];
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
      log_weights[t] +=
          DenseCommunityTerm(model.kappa.Row(a.worker), tables.log_psi_mean[t], a.labels);
    }
  }
  return log_weights;
}

TEST(ItemClusterLogWeightsTest, LiveCommunityPathEqualsDenseFormula) {
  FittedWorld world = FitWorld(17, PopulationMix::PaperSimulationDefault(),
                               PredictionMode::kMultinomialSizePrior);
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
