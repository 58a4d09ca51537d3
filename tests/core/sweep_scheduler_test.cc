#include "core/sweep/sweep_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <utility>
#include <vector>

#include "core/prediction.h"
#include "core/sweep/sweep_kernels.h"
#include "core/vi.h"
#include "simulation/dataset_factory.h"
#include "util/rng.h"
#include "util/special_functions.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace cpa {
namespace {

TEST(SweepSchedulerPartitionTest, CoversRangeWithoutOverlap) {
  for (std::size_t total : {0u, 1u, 7u, 100u, 4097u}) {
    const auto blocks = SweepScheduler::Partition(total, /*grain=*/8);
    std::size_t covered = 0;
    std::size_t expected_begin = 0;
    for (const auto& block : blocks) {
      EXPECT_EQ(block.begin, expected_begin);
      EXPECT_LT(block.begin, block.end);
      covered += block.end - block.begin;
      expected_begin = block.end;
    }
    EXPECT_EQ(covered, total);
    if (total > 0) {
      EXPECT_EQ(blocks.back().end, total);
    }
  }
}

TEST(SweepSchedulerPartitionTest, RespectsGrainAndBlockCap) {
  // Fewer indices than one grain: a single block.
  EXPECT_EQ(SweepScheduler::Partition(10, /*grain=*/16).size(), 1u);
  // Huge range: capped at kMaxReduceBlocks.
  EXPECT_LE(SweepScheduler::Partition(1'000'000, /*grain=*/8).size(),
            SweepScheduler::kMaxReduceBlocks);
}

TEST(SweepSchedulerPartitionTest, IndependentOfAnyScheduler) {
  // Partition is static and pure — the boundaries two differently-pooled
  // schedulers reduce over are the same by construction.
  const auto a = SweepScheduler::Partition(12345, 64);
  const auto b = SweepScheduler::Partition(12345, 64);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST(SweepSchedulerTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  SweepScheduler scheduler(&pool);
  bool called = false;
  scheduler.ParallelFor(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(SweepSchedulerTest, ParallelForCoversRangeOnceWithMoreBlocksThanThreads) {
  ThreadPool pool(2);
  SweepScheduler scheduler(&pool);
  std::vector<std::atomic<int>> touched(257);
  scheduler.ParallelFor(
      touched.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
      },
      /*min_shard=*/1);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(SweepSchedulerTest, ParallelReduceEmptyRangeLeavesOutUntouched) {
  SweepScheduler scheduler(nullptr);
  double out = 42.0;
  scheduler.ParallelReduce<double>(
      0, 8, [](ScratchArena&) { return 0.0; },
      [](double& partial, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) partial += 1.0;
      },
      [](double& into, double& from) { into += from; },
      [&](double& root) { out += root; });
  EXPECT_DOUBLE_EQ(out, 42.0);
}

/// A sum whose result depends on the merge structure in floating point:
/// exact equality across thread counts holds only because the blocks and
/// the merge tree are fixed.
double ReduceSum(const std::vector<double>& values, ThreadPool* pool,
                 ScratchArena::Mode mode = ScratchArena::Mode::kReuse) {
  SweepScheduler scheduler(pool, mode);
  double out = 0.0;
  scheduler.ParallelReduce<double>(
      values.size(), /*grain=*/64, [](ScratchArena&) { return 0.0; },
      [&](double& partial, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) partial += values[i];
      },
      [](double& into, double& from) { into += from; },
      [&](double& root) { out += root; });
  return out;
}

TEST(SweepSchedulerTest, ParallelReduceBitIdenticalForAnyThreadCount) {
  std::vector<double> values(10'000);
  double x = 0.1;
  for (double& v : values) {
    v = x;
    x = x * 1.0001 + 1e-7;  // spread magnitudes so order matters in FP
  }
  const double inline_sum = ReduceSum(values, nullptr);
  ThreadPool one(1);
  ThreadPool four(4);
  EXPECT_DOUBLE_EQ(ReduceSum(values, &one), inline_sum);
  EXPECT_DOUBLE_EQ(ReduceSum(values, &four), inline_sum);
  // And across repeated runs on the same pool (no scheduling dependence).
  EXPECT_DOUBLE_EQ(ReduceSum(values, &four), ReduceSum(values, &four));
  // The arena mode is buffer policy, never arithmetic: heap-mode scratch
  // produces the same bits as reuse-mode scratch.
  EXPECT_DOUBLE_EQ(ReduceSum(values, &four, ScratchArena::Mode::kHeap),
                   inline_sum);
}

TEST(SweepSchedulerTest, ParallelReduceMergesInFixedTreeOrder) {
  // With a non-commutative-ish merge (string concatenation), any change of
  // merge order or block assignment would change the result.
  const auto reduce_labels = [](ThreadPool* pool) {
    SweepScheduler scheduler(pool);
    std::string out;
    scheduler.ParallelReduce<std::string>(
        1600, /*grain=*/100, [](ScratchArena&) { return std::string(); },
        [](std::string& partial, std::size_t begin, std::size_t end) {
          partial = StrFormat("[%zu,%zu)", begin, end);
        },
        [](std::string& into, std::string& from) { into += from; },
        [&](std::string& root) { out += root; });
    return out;
  };
  ThreadPool four(4);
  const std::string inline_order = reduce_labels(nullptr);
  EXPECT_FALSE(inline_order.empty());
  EXPECT_EQ(reduce_labels(&four), inline_order);
}

// The memory-plane acceptance: after the first call warms the slabs, a
// steady-state reduce allocates nothing — checkouts keep counting, slab
// allocations stop.
TEST(ScratchArenaReuseTest, SteadyStateReduceAllocatesNoNewSlabs) {
  SweepScheduler scheduler(nullptr);
  const auto run_reduce = [&] {
    double out = 0.0;
    scheduler.ParallelReduce<std::span<double>>(
        8192, /*grain=*/64,
        [](ScratchArena& arena) { return arena.AllocZeroed<double>(512); },
        [](std::span<double>& partial, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) partial[i % 512] += 1.0;
        },
        [](std::span<double>& into, std::span<double>& from) {
          for (std::size_t e = 0; e < into.size(); ++e) into[e] += from[e];
        },
        [&](std::span<double>& root) {
          for (double v : root) out += v;
        });
    return out;
  };
  const double first = run_reduce();
  const ScratchArena::Stats warm = scheduler.arena_stats();
  EXPECT_GT(warm.slab_allocations, 0u);
  EXPECT_GT(warm.checkouts, 0u);
  for (int call = 0; call < 5; ++call) {
    EXPECT_DOUBLE_EQ(run_reduce(), first);
  }
  const ScratchArena::Stats steady = scheduler.arena_stats();
  EXPECT_EQ(steady.slab_allocations, warm.slab_allocations)
      << "steady-state reduces must reuse the warm slabs";
  EXPECT_EQ(steady.bytes_reserved, warm.bytes_reserved);
  EXPECT_GT(steady.checkouts, warm.checkouts);
  EXPECT_EQ(steady.bytes_in_use, 0u) << "frames must rewind every checkout";
}

// kHeap mode is the pre-arena baseline: every checkout is a fresh
// allocation, so the counter keeps climbing call over call.
TEST(ScratchArenaReuseTest, HeapModeAllocatesPerCall) {
  SweepScheduler scheduler(nullptr, ScratchArena::Mode::kHeap);
  const auto run_reduce = [&] {
    double out = 0.0;
    scheduler.ParallelReduce<std::span<double>>(
        4096, /*grain=*/64,
        [](ScratchArena& arena) { return arena.AllocZeroed<double>(64); },
        [](std::span<double>& partial, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) partial[i % 64] += 1.0;
        },
        [](std::span<double>& into, std::span<double>& from) {
          for (std::size_t e = 0; e < into.size(); ++e) into[e] += from[e];
        },
        [&](std::span<double>& root) {
          for (double v : root) out += v;
        });
    return out;
  };
  run_reduce();
  const std::size_t after_first = scheduler.arena_stats().slab_allocations;
  run_reduce();
  EXPECT_GT(scheduler.arena_stats().slab_allocations, after_first);
  EXPECT_EQ(scheduler.arena_stats().bytes_reserved, 0u)
      << "heap mode frees every frame's blocks";
}

// Arena-vs-heap bit-identity at the kernel level: the full λ reduce run
// through reuse-mode and heap-mode schedulers produces identical banks.
TEST(ScratchArenaReuseTest, LambdaReduceIdenticalForArenaAndHeapScratch) {
  FactoryOptions options;
  options.scale = 0.05;
  auto dataset = MakePaperDataset(PaperDatasetId::kMovie, options);
  ASSERT_TRUE(dataset.ok());
  const Dataset& d = dataset.value();
  CpaOptions cpa_options = CpaOptions::Recommended(d.num_items(), d.num_labels);
  cpa_options.max_iterations = 4;
  auto fitted = FitCpa(d.answers, d.num_labels, cpa_options);
  ASSERT_TRUE(fitted.ok());
  const AnswerView view(d.answers);

  const auto lambda_with = [&](ScratchArena::Mode mode) {
    CpaModel model = fitted.value();
    SweepScheduler scheduler(nullptr, mode);
    const sweep::ClusterActivity activity{&model.phi, sweep::kSkipMass};
    sweep::UpdateLambda(model, view, activity, scheduler);
    return model.lambda;
  };
  const Matrix arena_lambda = lambda_with(ScratchArena::Mode::kReuse);
  const Matrix heap_lambda = lambda_with(ScratchArena::Mode::kHeap);
  EXPECT_DOUBLE_EQ(arena_lambda.MaxAbsDiff(heap_lambda), 0.0);
}

TEST(SweepDeterminismTest, FitCpaIdenticalForOneAndFourThreads) {
  // The acceptance bar of the sweep layer: the full offline fit — MAP
  // sweeps and parallel REDUCE included — is exactly equal at 1 and 4
  // threads.
  FactoryOptions options;
  options.scale = 0.08;
  auto dataset = MakePaperDataset(PaperDatasetId::kImage, options);
  ASSERT_TRUE(dataset.ok());
  const Dataset& d = dataset.value();
  CpaOptions cpa_options = CpaOptions::Recommended(d.num_items(), d.num_labels);
  cpa_options.max_iterations = 12;

  ThreadPool one(1);
  ThreadPool four(4);
  FitOptions fit_one;
  fit_one.pool = &one;
  FitOptions fit_four;
  fit_four.pool = &four;
  const auto a = FitCpa(d.answers, d.num_labels, cpa_options, fit_one);
  const auto b = FitCpa(d.answers, d.num_labels, cpa_options, fit_four);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.value().kappa.MaxAbsDiff(b.value().kappa), 0.0);
  EXPECT_DOUBLE_EQ(MaxAbsDiff(a.value().phi, b.value().phi), 0.0);
  EXPECT_DOUBLE_EQ(a.value().zeta.MaxAbsDiff(b.value().zeta), 0.0);
  EXPECT_DOUBLE_EQ(a.value().theta_a.MaxAbsDiff(b.value().theta_a), 0.0);
  EXPECT_DOUBLE_EQ(a.value().lambda.MaxAbsDiff(b.value().lambda), 0.0);
}

/// The (cluster, weight) pairs of row `i` at or above `threshold`, by a
/// scan of the dense row — the reference a `ClusterActivity` view must
/// reproduce.
std::vector<std::pair<std::size_t, double>> DenseScan(const PhiRows& phi, ItemId i,
                                                      double threshold) {
  std::vector<std::pair<std::size_t, double>> entries;
  const std::vector<double> row = phi.DenseRow(i);
  for (std::size_t t = 0; t < row.size(); ++t) {
    if (row[t] >= threshold) entries.emplace_back(t, row[t]);
  }
  return entries;
}

/// Row `i` as a `ClusterActivity` view at `threshold` yields it.
std::vector<std::pair<std::size_t, double>> ViewScan(const PhiRows& phi, ItemId i,
                                                     double threshold) {
  std::vector<std::pair<std::size_t, double>> entries;
  const sweep::ClusterActivity activity{&phi, threshold};
  activity.ForEach(i, [&](std::size_t t, double w) { entries.emplace_back(t, w); });
  return entries;
}

/// Bit-for-bit equality of two entry lists (the weights compared by their
/// bytes, not as doubles).
void ExpectSameEntries(const std::vector<std::pair<std::size_t, double>>& actual,
                       const std::vector<std::pair<std::size_t, double>>& expected,
                       ItemId i) {
  ASSERT_EQ(actual.size(), expected.size()) << "row " << i;
  for (std::size_t k = 0; k < actual.size(); ++k) {
    EXPECT_EQ(actual[k].first, expected[k].first) << "row " << i;
    EXPECT_EQ(std::memcmp(&actual[k].second, &expected[k].second, sizeof(double)), 0)
        << "row " << i << " cluster " << actual[k].first;
  }
}

TEST(ClusterActivityViewTest, ForEachMatchesDenseScanOnEveryRowForm) {
  // Odd T; rows mix initial rows, one-hot rows, floored softmax rows the
  // store keeps sparse, and dense rows (more than 2T/3 nonzeros) holding
  // exact zeros and entries on both sides of both thresholds.
  const std::size_t I = 300;
  const std::size_t T = 37;
  Rng init(41);
  PhiRows phi;
  phi.ResetJittered(I, T, init);
  Rng rng(43);
  std::vector<double> row(T);
  std::size_t initial = 0;
  std::size_t dense = 0;
  for (ItemId i = 0; i < I; ++i) {
    const std::uint64_t kind = rng.NextBounded(4);
    if (kind == 0) {
      phi.AssignOneHot(i, rng.NextBounded(T));
    } else if (kind == 1) {
      for (double& logit : row) logit = -60.0 * rng.NextDouble();
      SoftmaxInPlace(row, sweep::kSoftmaxFloorNats);
      phi.Assign(i, row);
    } else if (kind == 2) {
      // 31 nonzeros of 37: 1e-11 falls below both thresholds, 1e-9 only
      // below kSkipMass.
      const double scale[] = {1e-11, 1e-9, 1e-8, 0.3};
      for (std::size_t t = 0; t < T; ++t) {
        row[t] = t % 7 == 0 ? 0.0 : scale[rng.NextBounded(4)] * (1.0 + rng.NextDouble());
      }
      row[rng.NextBounded(T)] = 0.5;
      phi.Assign(i, row);
      ++dense;
    }  // otherwise the row stays initial
    initial += phi.IsInitial(i);
  }
  ASSERT_GT(initial, 0u);
  ASSERT_GT(dense, 0u);

  for (const double threshold : {sweep::kSkipMass, internal::kClusterPrune}) {
    for (ItemId i = 0; i < I; ++i) {
      ExpectSameEntries(ViewScan(phi, i, threshold), DenseScan(phi, i, threshold), i);
    }
  }
  // The two thresholds disagree somewhere, so both were exercised.
  std::size_t differing = 0;
  for (ItemId i = 0; i < I; ++i) {
    differing += DenseScan(phi, i, sweep::kSkipMass).size() !=
                 DenseScan(phi, i, internal::kClusterPrune).size();
  }
  EXPECT_GT(differing, 0u);
}

TEST(SweepDeterminismTest, ClusterActivityMatchesPhiThreshold) {
  FactoryOptions options;
  options.scale = 0.05;
  auto dataset = MakePaperDataset(PaperDatasetId::kMovie, options);
  ASSERT_TRUE(dataset.ok());
  const Dataset& d = dataset.value();
  CpaOptions cpa_options = CpaOptions::Recommended(d.num_items(), d.num_labels);
  cpa_options.max_iterations = 5;
  const auto model = FitCpa(d.answers, d.num_labels, cpa_options);
  ASSERT_TRUE(model.ok());

  // `BuildClusterActivity` binds the view whatever the scheduler.
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SweepScheduler scheduler(p);
    sweep::ClusterActivity activity;
    sweep::BuildClusterActivity(model.value().phi, scheduler, activity);
    EXPECT_EQ(activity.phi, &model.value().phi);
    EXPECT_EQ(activity.threshold, sweep::kSkipMass);
    for (ItemId i = 0; i < model.value().num_items(); ++i) {
      ExpectSameEntries(ViewScan(model.value().phi, i, activity.threshold),
                        DenseScan(model.value().phi, i, sweep::kSkipMass), i);
    }
  }
}

// ---------------------------------------------------------------------------
// Seed-row change: the seeding kernels report how far they moved ϕ, which
// the offline fit's convergence check reads instead of a ϕ snapshot.
// ---------------------------------------------------------------------------

CpaModel SeedTestModel(std::size_t items, std::size_t clusters) {
  CpaOptions options;
  options.max_communities = 3;
  options.max_clusters = clusters;
  auto model = CpaModel::Create(items, 2, 5, options);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(SeedRowChangeTest, WriteSeedRowReturnsMaxRowChange) {
  CpaModel model = SeedTestModel(4, 6);
  const PhiRows before = model.phi;
  ASSERT_TRUE(model.phi.IsInitial(2));
  const double change = sweep::WriteSeedRow(model, 2, 4);
  EXPECT_EQ(model.phi.At(2, 4), 1.0);
  EXPECT_EQ(Sum(model.phi.DenseRow(2)), 1.0);
  // Only row 2 moved, so the row's change is the whole matrix's.
  EXPECT_GT(change, 0.0);
  EXPECT_EQ(change, MaxAbsDiff(model.phi, before));
  // Re-seeding the same cluster moves nothing; moving it moves a full unit.
  EXPECT_EQ(sweep::WriteSeedRow(model, 2, 4), 0.0);
  EXPECT_EQ(sweep::WriteSeedRow(model, 2, 1), 1.0);
}

TEST(SeedRowChangeTest, SeedClustersFromConsensusReturnsMaxRowChange) {
  // Four distinct consensus sets over three clusters, so the overflow set
  // joins its best Jaccard match; item 5 has no evidence and keeps its row.
  CpaModel model = SeedTestModel(6, 3);
  model.y_evidence[0] = {{0, 1.0}, {1, 0.9}};
  model.y_evidence[1] = {{0, 0.8}, {1, 0.6}};
  model.y_evidence[2] = {{2, 1.0}};
  model.y_evidence[3] = {{3, 0.7}, {2, 0.2}};
  model.y_evidence[4] = {{0, 1.0}, {1, 0.5}, {4, 0.9}};
  const PhiRows before = model.phi;
  const double change = sweep::SeedClustersFromConsensus(model, SweepScheduler());
  EXPECT_GT(change, 0.0);
  EXPECT_EQ(change, MaxAbsDiff(model.phi, before));
  EXPECT_TRUE(model.phi.IsInitial(5));
  EXPECT_EQ(model.phi.DenseRow(5), before.DenseRow(5));
  // Unchanged evidence reseeds every row onto its current cluster.
  EXPECT_EQ(sweep::SeedClustersFromConsensus(model, SweepScheduler()), 0.0);
  // A single cluster leaves ϕ alone.
  CpaModel single = SeedTestModel(2, 1);
  single.y_evidence[0] = {{0, 1.0}};
  EXPECT_EQ(sweep::SeedClustersFromConsensus(single, SweepScheduler()), 0.0);
}

TEST(SeedRowChangeTest, ShardedSeedingMatchesInline) {
  // 5000 items split over two or three shards (the item grain is 1024) and
  // overflow 16 clusters. A third of the items carry no evidence and keep
  // their initial rows; the rest start from different written rows, so
  // the shards' changes differ and the fold picks the largest.
  const std::size_t I = 5000;
  CpaModel model = SeedTestModel(I, 16);
  Rng rng(11);
  for (ItemId i = 0; i < I; ++i) {
    if (rng.NextBounded(3) == 0) continue;
    for (LabelId c = 0; c < 5; ++c) {
      if (rng.NextBounded(2) == 0) model.y_evidence[i].emplace_back(c, rng.NextDouble());
    }
    if (i < I / 2 && rng.NextBounded(2) == 0) {
      model.phi.AssignOneHot(i, rng.NextBounded(16));
    }
  }
  CpaModel inline_model = model;
  const double inline_change =
      sweep::SeedClustersFromConsensus(inline_model, SweepScheduler());
  EXPECT_GT(inline_change, 0.0);
  for (const std::size_t threads : {2, 3}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    CpaModel sharded = model;
    EXPECT_EQ(sweep::SeedClustersFromConsensus(sharded, SweepScheduler(&pool)),
              inline_change);
    for (ItemId i = 0; i < I; ++i) {
      ASSERT_EQ(sharded.phi.IsInitial(i), inline_model.phi.IsInitial(i)) << i;
      ASSERT_EQ(sharded.phi.IsInitial(i), model.y_evidence[i].empty() &&
                                              model.phi.IsInitial(i))
          << i;
    }
    EXPECT_EQ(MaxAbsDiff(sharded.phi, inline_model.phi), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Sticks over the sparse ϕ store: the same column masses, bit for bit, as
// the dense κ-form reduce over the densified rows.
// ---------------------------------------------------------------------------

TEST(PhiSticksTest, SparseRowsMatchDenseReferenceForAnyThreadCount) {
  // 2601 rows span three `kRowGrain` blocks (a merge tree, not one block);
  // T = 37 is odd. Rows mix initial runs of every length (the four-row
  // interleave and its single-row tail), one-hot rows, floored softmax
  // rows with exact zeros, and near-dense rows the store keeps dense.
  const std::size_t I = 2601;
  const std::size_t T = 37;
  Rng init(23);
  PhiRows phi;
  phi.ResetJittered(I, T, init);
  Rng rng(29);
  std::vector<double> logits(T);
  for (std::size_t i = 0; i < I; ++i) {
    const std::uint64_t kind = rng.NextBounded(7);
    if (kind == 0) {
      phi.AssignOneHot(i, rng.NextBounded(T));
    } else if (kind == 1 || kind == 2) {
      const double spread = kind == 1 ? 60.0 : 30.0;  // 30: few zeros
      for (double& logit : logits) logit = -spread * rng.NextDouble();
      SoftmaxInPlace(logits, sweep::kSoftmaxFloorNats);
      phi.Assign(i, logits);
    }  // otherwise the row stays initial
  }
  Matrix dense(I, T);
  for (std::size_t i = 0; i < I; ++i) phi.CopyRow(i, dense.Row(i));

  Matrix expected(T - 1, 2);
  sweep::UpdateSticks(expected, dense, 0.7, SweepScheduler(nullptr));
  const auto expect_bit_identical = [&](const Matrix& actual) {
    EXPECT_EQ(std::memcmp(actual.Data().data(), expected.Data().data(),
                          expected.size() * sizeof(double)),
              0);
  };
  {
    SCOPED_TRACE("nullptr executor");
    Matrix sticks(T - 1, 2);
    sweep::UpdateSticks(sticks, phi, 0.7, SweepScheduler(nullptr));
    expect_bit_identical(sticks);
  }
  for (std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    Matrix sticks(T - 1, 2);
    sweep::UpdateSticks(sticks, phi, 0.7, SweepScheduler(&pool));
    expect_bit_identical(sticks);
  }
}

}  // namespace
}  // namespace cpa
