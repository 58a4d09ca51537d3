#include "core/vi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"

#include "core/cpa.h"
#include "core/sweep/sweep_kernels.h"
#include "simulation/crowd_simulator.h"
#include "simulation/dataset_factory.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace cpa {
namespace {

struct TestWorld {
  Dataset dataset;
  GroundTruth truth;
  std::vector<WorkerProfile> workers;
};

TestWorld MakeWorld(std::uint64_t seed, const PopulationMix& mix,
                    std::size_t items = 200, std::size_t workers = 40,
                    double redundancy = 8.0) {
  Rng rng(seed);
  TruthConfig truth_config;
  truth_config.num_items = items;
  truth_config.num_labels = 12;
  truth_config.num_clusters = 3;
  truth_config.correlation = 0.85;
  truth_config.mean_labels_per_item = 2.5;
  truth_config.max_labels_per_item = 5;
  auto truth = GenerateGroundTruth(truth_config, rng);
  EXPECT_TRUE(truth.ok());

  PopulationConfig population_config;
  population_config.num_workers = workers;
  population_config.num_labels = 12;
  population_config.mix = mix;
  auto population = GeneratePopulation(population_config, rng);
  EXPECT_TRUE(population.ok());

  SimulationConfig sim_config;
  sim_config.answers_per_item = redundancy;
  sim_config.candidate_set_size = 12;
  auto answers = SimulateAnswers(truth.value(), population.value(), sim_config, rng);
  EXPECT_TRUE(answers.ok());

  TestWorld world;
  world.dataset.name = "vi-test";
  world.dataset.num_labels = 12;
  world.dataset.answers = std::move(answers).value();
  world.dataset.ground_truth = truth.value().labels;
  world.truth = std::move(truth).value();
  world.workers = std::move(population).value();
  return world;
}

CpaOptions FastOptions() {
  CpaOptions options;
  options.max_communities = 8;
  options.max_clusters = 48;
  options.max_iterations = 25;
  return options;
}

TEST(FitCpaTest, ProducesValidResponsibilities) {
  const TestWorld world = MakeWorld(3, PopulationMix::PaperSimulationDefault());
  FitStats stats;
  const auto model = FitCpa(world.dataset.answers, 12, FastOptions(), {}, &stats);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const CpaModel& m = model.value();
  for (std::size_t u = 0; u < m.num_workers(); ++u) {
    EXPECT_NEAR(m.kappa.RowSum(u), 1.0, 1e-6);
  }
  for (std::size_t i = 0; i < m.num_items(); ++i) {
    EXPECT_NEAR(Sum(m.phi.DenseRow(i)), 1.0, 1e-6);
  }
  EXPECT_GT(stats.iterations, 0u);
}

TEST(FitCpaTest, FittedPhiStoreStaysFarBelowDense) {
  // ϕ is stored by support: after a fit its rows hold a few dozen nonzeros
  // out of T, so the store must stay well under the I·T·8 bytes a dense
  // matrix takes. A slide back to dense storage fails here.
  const TestWorld world = MakeWorld(3, PopulationMix::PaperSimulationDefault());
  CpaOptions options = FastOptions();
  options.max_clusters = 512;
  options.max_iterations = 10;
  const auto model = FitCpa(world.dataset.answers, 12, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const PhiRows& phi = model.value().phi;
  ASSERT_EQ(phi.cols(), 512u);
  const double dense_bytes =
      static_cast<double>(phi.rows() * phi.cols() * sizeof(double));
  EXPECT_LT(static_cast<double>(phi.HeapBytes()), 0.25 * dense_bytes)
      << phi.HeapBytes() << " bytes for " << phi.rows() << " rows";
}

TEST(FitCpaTest, ConvergesOnSmallData) {
  const TestWorld world = MakeWorld(5, PopulationMix::PaperSimulationDefault(), 100);
  CpaOptions options = FastOptions();
  options.max_iterations = 60;
  FitStats stats;
  const auto model = FitCpa(world.dataset.answers, 12, options, {}, &stats);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(stats.converged) << "final change " << stats.final_change;
}

TEST(FitCpaTest, DeterministicForSameSeed) {
  const TestWorld world = MakeWorld(7, PopulationMix::PaperSimulationDefault(), 80);
  const auto a = FitCpa(world.dataset.answers, 12, FastOptions());
  const auto b = FitCpa(world.dataset.answers, 12, FastOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.value().kappa.MaxAbsDiff(b.value().kappa), 0.0);
  EXPECT_DOUBLE_EQ(MaxAbsDiff(a.value().phi, b.value().phi), 0.0);
}

TEST(FitCpaTest, ParallelFitMatchesSequentialExactly) {
  // Local updates touch disjoint rows with read-only shared state, so the
  // thread count must not change any result bit.
  const TestWorld world = MakeWorld(11, PopulationMix::PaperSimulationDefault(), 120);
  const auto sequential = FitCpa(world.dataset.answers, 12, FastOptions());
  ThreadPool pool(4);
  FitOptions fit;
  fit.pool = &pool;
  const auto parallel = FitCpa(world.dataset.answers, 12, FastOptions(), fit);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_DOUBLE_EQ(sequential.value().kappa.MaxAbsDiff(parallel.value().kappa), 0.0);
  EXPECT_DOUBLE_EQ(MaxAbsDiff(sequential.value().phi, parallel.value().phi), 0.0);
  EXPECT_DOUBLE_EQ(sequential.value().zeta.MaxAbsDiff(parallel.value().zeta), 0.0);
}

TEST(FitCpaTest, ClustersGroupItemsBySharedLabelSets) {
  // CPA clusters items by their *label sets* (items in a cluster share the
  // labelling distribution, §3.2) — so the model invariant is that items
  // sharing an inferred cluster have far more similar truth sets than
  // items in different clusters.
  const TestWorld world = MakeWorld(13, PopulationMix::AllReliable(), 300);
  const auto model = FitCpa(world.dataset.answers, 12, FastOptions());
  ASSERT_TRUE(model.ok());
  double within = 0.0;
  std::size_t within_n = 0;
  double across = 0.0;
  std::size_t across_n = 0;
  for (std::size_t i = 0; i < 150; ++i) {
    for (std::size_t j = i + 1; j < 150; ++j) {
      const double jaccard =
          world.dataset.ground_truth[i].Jaccard(world.dataset.ground_truth[j]);
      if (model.value().ItemCluster(i) == model.value().ItemCluster(j)) {
        within += jaccard;
        ++within_n;
      } else {
        across += jaccard;
        ++across_n;
      }
    }
  }
  ASSERT_GT(within_n, 0u);
  ASSERT_GT(across_n, 0u);
  EXPECT_GT(within / within_n, across / across_n + 0.3);
}

TEST(FitCpaTest, ItemsWithIdenticalTruthShareClusters) {
  // Stronger form on a clean crowd: items whose truth sets are *identical*
  // should usually land in the same cluster.
  const TestWorld world = MakeWorld(13, PopulationMix::AllReliable(), 300);
  const auto model = FitCpa(world.dataset.answers, 12, FastOptions());
  ASSERT_TRUE(model.ok());
  std::size_t identical_pairs = 0;
  std::size_t identical_shared = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t j = i + 1; j < 300; ++j) {
      if (world.dataset.ground_truth[i] == world.dataset.ground_truth[j]) {
        ++identical_pairs;
        identical_shared +=
            (model.value().ItemCluster(i) == model.value().ItemCluster(j));
      }
    }
  }
  ASSERT_GT(identical_pairs, 10u);
  EXPECT_GT(static_cast<double>(identical_shared) / identical_pairs, 0.7);
}

TEST(FitCpaTest, SeparatesSpammersFromReliableWorkers) {
  PopulationMix mix;
  mix.reliable = 0.5;
  mix.uniform_spammer = 0.25;
  mix.random_spammer = 0.25;
  const TestWorld world = MakeWorld(17, mix, 250, 40, 10.0);
  const auto model = FitCpa(world.dataset.answers, 12, FastOptions());
  ASSERT_TRUE(model.ok());

  // Reliability-weight per worker: community reliability mixed by kappa.
  const auto reliability = model.value().CommunityReliability();
  double reliable_weight = 0.0;
  std::size_t reliable_count = 0;
  double spam_weight = 0.0;
  std::size_t spam_count = 0;
  for (WorkerId u = 0; u < world.workers.size(); ++u) {
    double weight = 0.0;
    for (std::size_t m = 0; m < reliability.size(); ++m) {
      weight += model.value().kappa(u, m) * reliability[m];
    }
    if (world.workers[u].type == WorkerType::kReliable) {
      reliable_weight += weight;
      ++reliable_count;
    } else {
      spam_weight += weight;
      ++spam_count;
    }
  }
  ASSERT_GT(reliable_count, 0u);
  ASSERT_GT(spam_count, 0u);
  EXPECT_GT(reliable_weight / reliable_count, spam_weight / spam_count + 0.05);
}

TEST(FitCpaTest, UniformSpammersShareACommunity) {
  PopulationMix mix;
  mix.reliable = 0.6;
  mix.uniform_spammer = 0.4;
  const TestWorld world = MakeWorld(19, mix, 200, 30, 10.0);
  const auto model = FitCpa(world.dataset.answers, 12, FastOptions());
  ASSERT_TRUE(model.ok());
  // Count how often a uniform spammer shares its community with another
  // uniform spammer vs with a reliable worker.
  std::vector<WorkerId> spammers;
  std::vector<WorkerId> reliable;
  for (WorkerId u = 0; u < world.workers.size(); ++u) {
    if (world.workers[u].type == WorkerType::kUniformSpammer) {
      spammers.push_back(u);
    } else {
      reliable.push_back(u);
    }
  }
  ASSERT_GE(spammers.size(), 2u);
  // Reliable workers answer consistently with each other, so they should
  // share communities with one another far more often than with uniform
  // spammers (whose answers are fixated on arbitrary labels).
  std::size_t reliable_pairs_shared = 0;
  std::size_t reliable_pairs = 0;
  for (std::size_t a = 0; a < reliable.size(); ++a) {
    for (std::size_t b = a + 1; b < reliable.size(); ++b) {
      ++reliable_pairs;
      reliable_pairs_shared += (model.value().WorkerCommunity(reliable[a]) ==
                                model.value().WorkerCommunity(reliable[b]));
    }
  }
  std::size_t cross_shared = 0;
  for (WorkerId s : spammers) {
    for (WorkerId r : reliable) {
      cross_shared +=
          (model.value().WorkerCommunity(s) == model.value().WorkerCommunity(r));
    }
  }
  const double reliable_rate =
      static_cast<double>(reliable_pairs_shared) / static_cast<double>(reliable_pairs);
  const double cross_rate = static_cast<double>(cross_shared) /
                            static_cast<double>(spammers.size() * reliable.size());
  EXPECT_GT(reliable_rate, cross_rate + 0.2);
}

TEST(FitCpaTest, EffectiveClustersAdaptToData) {
  // Nonparametric behaviour (R4): the posterior occupies as many clusters
  // as there are frequent distinct label sets — well below the truncation,
  // well above the 3 generative topics.
  const TestWorld world = MakeWorld(23, PopulationMix::AllReliable(), 300);
  const auto model = FitCpa(world.dataset.answers, 12, FastOptions());
  ASSERT_TRUE(model.ok());
  const std::size_t effective = model.value().EffectiveClusters(3.0);
  EXPECT_GE(effective, 3u);
  EXPECT_LT(effective, 48u);
}

TEST(FitCpaTest, ObservedTruthIsRespected) {
  const TestWorld world = MakeWorld(29, PopulationMix::PaperSimulationDefault(), 100);
  FitOptions fit;
  fit.observed_truth = &world.dataset.ground_truth;
  const auto model = FitCpa(world.dataset.answers, 12, FastOptions(), fit);
  ASSERT_TRUE(model.ok());
  // Evidence of every item must equal its observed truth indicator.
  for (ItemId i = 0; i < 20; ++i) {
    const auto& evidence = model.value().y_evidence[i];
    EXPECT_EQ(evidence.size(), world.dataset.ground_truth[i].size());
    for (const auto& [c, weight] : evidence) {
      EXPECT_TRUE(world.dataset.ground_truth[i].Contains(c));
      EXPECT_DOUBLE_EQ(weight, 1.0);
    }
  }
}

TEST(FitCpaTest, EmptyAnswerMatrixStillFits) {
  const AnswerMatrix empty(5, 3);
  const auto model = FitCpa(empty, 4, FastOptions());
  ASSERT_TRUE(model.ok());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(Sum(model.value().phi.DenseRow(i)), 1.0, 1e-6);
  }
}

TEST(FitCpaTest, LabelEvidenceStrategiesProduceDifferentProfiles) {
  const TestWorld world = MakeWorld(31, PopulationMix::PaperSimulationDefault(), 150);
  CpaOptions frequency = FastOptions();
  frequency.label_evidence = LabelEvidence::kAnswerFrequency;
  CpaOptions observed_only = FastOptions();
  observed_only.label_evidence = LabelEvidence::kObservedOnly;
  const auto a = FitCpa(world.dataset.answers, 12, frequency);
  const auto b = FitCpa(world.dataset.answers, 12, observed_only);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // With y = ∅, the observed-only strategy leaves ζ at its prior.
  EXPECT_GT(a.value().zeta.MaxAbsDiff(b.value().zeta), 0.1);
  double max_entry = 0.0;
  for (double v : b.value().zeta.Data()) max_entry = std::max(max_entry, v);
  EXPECT_NEAR(max_entry, b.value().options().zeta0, 1e-9);
}

// FitStats of small fits, recorded at commit cf37490 — before the
// convergence measure moved from whole-matrix κ/ϕ snapshots into the κ/ϕ
// writers themselves. `final_change` is compared as raw bits: the fused
// measure is a max over the same |new − old| terms, so it must not move.
struct FitStatsGolden {
  const char* name;
  CpaVariant variant;
  LabelEvidence evidence;
  std::size_t threads;
  std::size_t iterations;
  bool converged;
  std::uint64_t final_change_bits;
};

constexpr FitStatsGolden kFitStatsGoldens[] = {
    {"CPA", CpaVariant::kFull, LabelEvidence::kReliabilityWeighted, 0, 23, true,
     0x3f12b0047777e000},
    {"CPA 2 threads", CpaVariant::kFull, LabelEvidence::kReliabilityWeighted, 2, 23, true,
     0x3f12b0047777e000},
    {"CPA self-training", CpaVariant::kFull, LabelEvidence::kSelfTraining, 0, 7, true,
     0x3f1c91e986231000},
    {"CPA-NoZ", CpaVariant::kNoZ, LabelEvidence::kReliabilityWeighted, 0, 14, true,
     0x3f1ea79eabfa1740},
    {"CPA-NoL", CpaVariant::kNoL, LabelEvidence::kReliabilityWeighted, 0, 4, true, 0x0},
};

TEST(FitCpaTest, FitStatsMatchGoldenBits) {
  const TestWorld world = MakeWorld(13, PopulationMix::PaperSimulationDefault(), 90);
  for (const FitStatsGolden& golden : kFitStatsGoldens) {
    SCOPED_TRACE(golden.name);
    CpaOptions options = FastOptions();
    options.label_evidence = golden.evidence;
    std::unique_ptr<ThreadPool> pool;
    if (golden.threads > 0) pool = std::make_unique<ThreadPool>(golden.threads);
    const auto solution =
        SolveCpaOffline(world.dataset.answers, 12, options, golden.variant, pool.get());
    ASSERT_TRUE(solution.ok()) << solution.status().ToString();
    const FitStats& stats = solution.value().stats;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(stats.final_change);
    EXPECT_EQ(stats.iterations, golden.iterations);
    EXPECT_EQ(stats.converged, golden.converged);
    EXPECT_EQ(bits, golden.final_change_bits)
        << StrFormat("final_change %.17g = 0x%016llx", stats.final_change,
                     static_cast<unsigned long long>(bits));
  }
}

TEST(FitCpaTest, RelativeReliabilityMatchesTheOfflineFormula) {
  // `sweep::ComputeWorkerReliability`'s weighting: weights start at 1,
  // workers without answers (score -1) keep theirs, and every scored worker
  // gets max((score / best)^sharpness, floor). `volatile` keeps the exponent
  // a run-time value, as it is in a fit: a compile-time 2.0 lets the
  // compiler turn pow into a product that differs in the last bit.
  const volatile double sharpness_source = FastOptions().reliability_sharpness;
  const double sharpness = sharpness_source;
  const std::vector<double> shrunk = {0.81, -1.0, 0.0, 0.37, 0.93, 0.05, 1e-3, 0.6};
  std::vector<double> weights(shrunk.size(), 1.0);
  sweep::WeighRelativeReliability(shrunk, sharpness, weights);
  double best = 0.0;
  for (double s : shrunk) best = std::max(best, s);
  for (std::size_t u = 0; u < shrunk.size(); ++u) {
    const double expected =
        shrunk[u] < 0.0 ? 1.0 : std::max(std::pow(shrunk[u] / best, sharpness), 0.05);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(weights[u]),
              std::bit_cast<std::uint64_t>(expected))
        << "worker " << u;
  }
}

}  // namespace
}  // namespace cpa
