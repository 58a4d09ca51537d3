/// Microbenchmarks of the inference and prediction kernels (the per-sweep
/// costs behind Fig 7's curves), on google-benchmark.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/cpa.h"
#include "core/prediction.h"
#include "core/sweep/answer_view.h"
#include "core/sweep/simd.h"
#include "core/sweep/sweep_kernels.h"
#include "core/sweep/sweep_scheduler.h"
#include "core/vi.h"
#include "data/dataset.h"
#include "simulation/dataset_factory.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/special_functions.h"
#include "util/thread_pool.h"

namespace cpa {
namespace {

void BM_Digamma(benchmark::State& state) {
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Digamma(x));
    x = x > 100.0 ? 0.1 : x + 0.1;
  }
}
BENCHMARK(BM_Digamma);

void BM_LogSumExp(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> values(state.range(0));
  for (double& v : values) v = -10.0 * rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogSumExp(values));
  }
}
BENCHMARK(BM_LogSumExp)->Arg(16)->Arg(64)->Arg(256);

void BM_SoftmaxInPlace(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> values(state.range(0));
  for (auto _ : state) {
    for (double& v : values) v = -10.0 * rng.NextDouble();
    SoftmaxInPlace(values);
    benchmark::DoNotOptimize(values.data());
  }
}
BENCHMARK(BM_SoftmaxInPlace)->Arg(64)->Arg(1024);

// ---------------------------------------------------------------------------
// Scalar-vs-AVX2 kernel pairs (core/sweep/simd.h). Each pair calls the two
// dispatch tables directly, so the comparison isolates the vectorization win
// from dispatch overhead. On machines without AVX2, KernelsFor(kAvx2)
// resolves to the scalar table and the pair reads as ~1×.
// ---------------------------------------------------------------------------

void AccumulateBody(benchmark::State& state, const simd::Kernels& kernels) {
  Rng rng(3);
  std::vector<double> from(state.range(0));
  std::vector<double> into(state.range(0), 0.0);
  for (double& v : from) v = rng.NextDouble();
  for (auto _ : state) {
    kernels.accumulate(into.data(), from.data(), from.size());
    benchmark::DoNotOptimize(into.data());
  }
}
void BM_AccumulateScalar(benchmark::State& state) {
  AccumulateBody(state, simd::KernelsFor(simd::Level::kScalar));
}
void BM_AccumulateAvx2(benchmark::State& state) {
  AccumulateBody(state, simd::KernelsFor(simd::Level::kAvx2));
}
// 4096 ≈ one λ partial bank (M×C) at movie scale; 65536 ≈ the flattened
// T×M×C merge the reduce tree performs per pair of blocks.
BENCHMARK(BM_AccumulateScalar)->Arg(4096)->Arg(65536);
BENCHMARK(BM_AccumulateAvx2)->Arg(4096)->Arg(65536);

void AxpyBody(benchmark::State& state, const simd::Kernels& kernels) {
  Rng rng(4);
  std::vector<double> in(state.range(0));
  std::vector<double> out(state.range(0), 0.0);
  for (double& v : in) v = rng.NextDouble();
  for (auto _ : state) {
    kernels.axpy(0.37, in.data(), out.data(), in.size());
    benchmark::DoNotOptimize(out.data());
  }
}
void BM_AxpyScalar(benchmark::State& state) {
  AxpyBody(state, simd::KernelsFor(simd::Level::kScalar));
}
void BM_AxpyAvx2(benchmark::State& state) {
  AxpyBody(state, simd::KernelsFor(simd::Level::kAvx2));
}
BENCHMARK(BM_AxpyScalar)->Arg(4096);
BENCHMARK(BM_AxpyAvx2)->Arg(4096);

void DotBody(benchmark::State& state, const simd::Kernels& kernels) {
  Rng rng(5);
  std::vector<double> a(state.range(0));
  std::vector<double> b(state.range(0));
  for (double& v : a) v = rng.NextDouble();
  for (double& v : b) v = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels.dot(a.data(), b.data(), a.size()));
  }
}
void BM_DotScalar(benchmark::State& state) {
  DotBody(state, simd::KernelsFor(simd::Level::kScalar));
}
void BM_DotAvx2(benchmark::State& state) {
  DotBody(state, simd::KernelsFor(simd::Level::kAvx2));
}
BENCHMARK(BM_DotScalar)->Arg(4096);
BENCHMARK(BM_DotAvx2)->Arg(4096);

// Softmax mutates in place, so each iteration restores the row with a
// std::copy from a pristine source — cheap and identical for both levels,
// unlike an RNG refill which would dominate the timing.
void SoftmaxBody(benchmark::State& state, const simd::Kernels& kernels) {
  Rng rng(6);
  std::vector<double> source(state.range(0));
  for (double& v : source) v = -10.0 * rng.NextDouble();
  std::vector<double> values(source.size());
  for (auto _ : state) {
    std::copy(source.begin(), source.end(), values.begin());
    benchmark::DoNotOptimize(kernels.softmax(values.data(), values.size()));
  }
}
void BM_SoftmaxScalar(benchmark::State& state) {
  SoftmaxBody(state, simd::KernelsFor(simd::Level::kScalar));
}
void BM_SoftmaxAvx2(benchmark::State& state) {
  SoftmaxBody(state, simd::KernelsFor(simd::Level::kAvx2));
}
BENCHMARK(BM_SoftmaxScalar)->Arg(64)->Arg(1024);
BENCHMARK(BM_SoftmaxAvx2)->Arg(64)->Arg(1024);

// A concentrated row: one dominant log-weight, the rest ~40 nats below it,
// so nearly every 4-block fails the 27.6-nat floor. This is the shape the
// movemask block-skip in the AVX2 floored softmax is built for (prediction
// rows after a few sweeps look like this).
void SoftmaxFlooredBody(benchmark::State& state, const simd::Kernels& kernels) {
  Rng rng(7);
  std::vector<double> source(state.range(0));
  for (double& v : source) v = -40.0 - 5.0 * rng.NextDouble();
  source[0] = 0.0;
  std::vector<double> values(source.size());
  for (auto _ : state) {
    std::copy(source.begin(), source.end(), values.begin());
    benchmark::DoNotOptimize(
        kernels.softmax_floored(values.data(), values.size(), 27.6));
  }
}
void BM_SoftmaxFlooredScalar(benchmark::State& state) {
  SoftmaxFlooredBody(state, simd::KernelsFor(simd::Level::kScalar));
}
void BM_SoftmaxFlooredAvx2(benchmark::State& state) {
  SoftmaxFlooredBody(state, simd::KernelsFor(simd::Level::kAvx2));
}
BENCHMARK(BM_SoftmaxFlooredScalar)->Arg(64)->Arg(1024);
BENCHMARK(BM_SoftmaxFlooredAvx2)->Arg(64)->Arg(1024);

/// Shared fixture: a small fitted model over a simulated movie dataset,
/// plus the flat view the sweep kernels consume. Each benchmark reads ϕ
/// through a `ClusterActivity` view of its own model copy.
struct FittedFixture {
  Dataset dataset;
  CpaModel model;
  AnswerView view;
  SweepScheduler scheduler;  ///< arena-backed (the production default)
  SweepScheduler heap_scheduler{nullptr, ScratchArena::Mode::kHeap};

  static FittedFixture& Get() {
    static FittedFixture* fixture = [] {
      auto* f = new FittedFixture();
      FactoryOptions options;
      options.scale = 0.2;
      auto dataset = MakePaperDataset(PaperDatasetId::kMovie, options);
      CPA_CHECK(dataset.ok());
      f->dataset = std::move(dataset).value();
      CpaOptions cpa_options =
          CpaOptions::Recommended(f->dataset.num_items(), f->dataset.num_labels);
      cpa_options.max_iterations = 10;
      auto model = FitCpa(f->dataset.answers, f->dataset.num_labels, cpa_options);
      CPA_CHECK(model.ok());
      f->model = std::move(model).value();
      f->view = AnswerView(f->dataset.answers);
      return f;
    }();
    return *fixture;
  }
};

void BM_UpdateWorkerResponsibility(benchmark::State& state) {
  FittedFixture& f = FittedFixture::Get();
  CpaModel model = f.model;
  const sweep::ClusterActivity activity{&model.phi, sweep::kSkipMass};
  WorkerId u = 0;
  for (auto _ : state) {
    sweep::UpdateWorkerResponsibility(model, f.view, u, f.view.AnswersOfWorker(u),
                                      &activity);
    u = (u + 1) % model.num_workers();
  }
}
BENCHMARK(BM_UpdateWorkerResponsibility);

void BM_UpdateItemResponsibility(benchmark::State& state) {
  FittedFixture& f = FittedFixture::Get();
  CpaModel model = f.model;
  ItemId i = 0;
  for (auto _ : state) {
    sweep::UpdateItemResponsibility(model, f.view, i, f.view.AnswersOfItem(i));
    i = (i + 1) % model.num_items();
  }
}
BENCHMARK(BM_UpdateItemResponsibility);

void BM_UpdateLambda(benchmark::State& state) {
  FittedFixture& f = FittedFixture::Get();
  CpaModel model = f.model;
  const sweep::ClusterActivity activity{&model.phi, sweep::kSkipMass};
  for (auto _ : state) {
    sweep::UpdateLambda(model, f.view, activity, f.scheduler);
  }
}
BENCHMARK(BM_UpdateLambda);

// The arena-vs-heap `ParallelReduce` pair: the same λ reduce with partial
// banks checked out of the scheduler's reuse arena (steady-state: zero
// allocations) versus the kHeap baseline (one fresh allocation per partial
// per call — the pre-arena behaviour). Results are bit-identical; only the
// allocator traffic differs.
void BM_ParallelReduceLambdaArena(benchmark::State& state) {
  FittedFixture& f = FittedFixture::Get();
  CpaModel model = f.model;
  const SweepScheduler scheduler(nullptr, ScratchArena::Mode::kReuse);
  const sweep::ClusterActivity activity{&model.phi, sweep::kSkipMass};
  for (auto _ : state) {
    sweep::UpdateLambda(model, f.view, activity, scheduler);
  }
}
BENCHMARK(BM_ParallelReduceLambdaArena);

void BM_ParallelReduceLambdaHeap(benchmark::State& state) {
  FittedFixture& f = FittedFixture::Get();
  CpaModel model = f.model;
  const sweep::ClusterActivity activity{&model.phi, sweep::kSkipMass};
  for (auto _ : state) {
    sweep::UpdateLambda(model, f.view, activity, f.heap_scheduler);
  }
}
BENCHMARK(BM_ParallelReduceLambdaHeap);

void BM_UpdateThetaChannel(benchmark::State& state) {
  FittedFixture& f = FittedFixture::Get();
  CpaModel model = f.model;
  const sweep::ClusterActivity activity{&model.phi, sweep::kSkipMass};
  for (auto _ : state) {
    sweep::UpdateThetaChannel(model, activity, f.scheduler);
  }
}
BENCHMARK(BM_UpdateThetaChannel);

void BM_RefreshExpectations(benchmark::State& state) {
  FittedFixture& f = FittedFixture::Get();
  CpaModel model = f.model;
  for (auto _ : state) {
    model.RefreshExpectations();
  }
}
BENCHMARK(BM_RefreshExpectations);

void BM_PredictLabels(benchmark::State& state) {
  FittedFixture& f = FittedFixture::Get();
  for (auto _ : state) {
    auto prediction = PredictLabels(f.model, f.dataset.answers);
    CPA_CHECK(prediction.ok());
    benchmark::DoNotOptimize(prediction.value().labels.data());
  }
}
BENCHMARK(BM_PredictLabels);

// The per-item multinomial pipeline (reweight → candidates → greedy
// instantiation) with one arena-backed scratch reused across items.
void BM_PredictionItemsArena(benchmark::State& state) {
  FittedFixture& f = FittedFixture::Get();
  const auto tables = internal::BuildPredictionTables(f.model);
  const sweep::ClusterActivity activity{&f.model.phi, internal::kClusterPrune};
  ScratchArena arena;
  internal::PredictionScratch scratch(arena, f.model.num_clusters(),
                                      f.model.num_communities());
  ItemId i = 0;
  for (auto _ : state) {
    internal::ItemClusterLogWeights(f.model, tables, f.dataset.answers, i,
                                    activity, scratch);
    internal::CollectCandidates(tables, f.dataset.answers, i, scratch.log_weights,
                                scratch);
    benchmark::DoNotOptimize(internal::GreedyInstantiate(
        tables, scratch.log_weights, scratch.candidates, scratch));
    i = (i + 1) % f.model.num_items();
  }
}
BENCHMARK(BM_PredictionItemsArena);

/// The Fig 7 shape after a fit: 10^4 items × 1024 clusters and 100k
/// answers, fitted for 10 sweeps on 2 threads (the perfbench offline-fit
/// session). ϕ holds the fitted sparse rows, so the ϕ passes below cost
/// what they cost inside a fit.
struct Fig7Fixture {
  Dataset dataset;
  CpaModel model;
  AnswerView view;

  static const Fig7Fixture& Get() {
    static const Fig7Fixture* fixture = [] {
      auto* f = new Fig7Fixture();
      auto dataset =
          MakeScalabilityDataset(10'000, 10'000, 10, 10.0, FactoryOptions());
      CPA_CHECK(dataset.ok());
      f->dataset = std::move(dataset).value();
      CpaOptions options =
          CpaOptions::Recommended(f->dataset.num_items(), f->dataset.num_labels);
      options.max_iterations = 10;
      ThreadPool pool(2);
      FitOptions fit;
      fit.pool = &pool;
      auto model = FitCpa(f->dataset.answers, f->dataset.num_labels, options, fit);
      CPA_CHECK(model.ok());
      f->model = std::move(model).value();
      f->view = AnswerView(f->dataset.answers);
      return f;
    }();
    return *fixture;
  }
};

/// The size-prior rebuild at the fitted Fig 7 shape: one pass over the
/// 100k answers adding each answer's nonzero ϕ entries, on the calling
/// thread.
void BM_UpdateSizePrior(benchmark::State& state) {
  const Fig7Fixture& f = Fig7Fixture::Get();
  CpaModel model = f.model;
  for (auto _ : state) {
    model.UpdateSizePrior(f.view);
    benchmark::DoNotOptimize(model.size_prior.Data().data());
  }
  state.counters["answers"] = static_cast<double>(f.view.num_answers());
  state.counters["clusters"] = static_cast<double>(model.num_clusters());
}
BENCHMARK(BM_UpdateSizePrior)->Unit(benchmark::kMillisecond);

/// The τ′ stick update over the fitted sparse ϕ on `state.range(0)`
/// threads: the per-sweep column-mass reduce.
void BM_UpdateSticksPhi(benchmark::State& state) {
  const Fig7Fixture& f = Fig7Fixture::Get();
  CpaModel model = f.model;
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const SweepScheduler scheduler(&pool);
  for (auto _ : state) {
    sweep::UpdateSticks(model.upsilon, model.phi, model.options().epsilon, scheduler);
    benchmark::DoNotOptimize(model.upsilon.Data().data());
  }
}
BENCHMARK(BM_UpdateSticksPhi)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_ComputeElbo(benchmark::State& state) {
  FittedFixture& f = FittedFixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeElbo(f.model, f.dataset.answers));
  }
}
BENCHMARK(BM_ComputeElbo);

}  // namespace
}  // namespace cpa

BENCHMARK_MAIN();
