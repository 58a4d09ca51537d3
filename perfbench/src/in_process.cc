#include "in_process.h"

#include <utility>

#include "checks.h"
#include "engine/engine_registry.h"
#include "eval/metrics.h"
#include "simulation/dataset_factory.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

cpa::Dataset MakeScalabilityInputs(std::uint64_t seed) {
  cpa::FactoryOptions options;
  options.seed = seed;
  auto dataset = cpa::MakeScalabilityDataset(10'000, 10'000, 10, 10.0, options);
  CPA_CHECK(dataset.ok()) << dataset.status().ToString();
  return std::move(dataset).value();
}

namespace {

cpa::EngineConfig ScalabilityConfig(const cpa::Dataset& dataset, const char* method) {
  cpa::EngineConfig config = cpa::EngineConfig::ForDataset(method, dataset);
  config.cpa.max_iterations = 10;
  config.num_threads = kSweepThreads;
  return config;
}

}  // namespace

namespace {

/// The in-process streams: `workers_per_batch` workers' answers per batch.
cpa::BatchPlan WorkerBatches(const cpa::Dataset& dataset, std::size_t workers_per_batch,
                             std::uint64_t seed) {
  cpa::Rng rng(seed);
  return cpa::MakeWorkerBatches(dataset.answers, workers_per_batch, rng);
}

}  // namespace

InProcessWorkload MakeOfflineFit(std::uint64_t seed) {
  InProcessWorkload workload;
  workload.dataset = MakeScalabilityInputs(seed);
  workload.config = ScalabilityConfig(workload.dataset, "CPA");
  workload.plan = WorkerBatches(workload.dataset, 400, seed);
  workload.refresh_every = workload.plan.batches.size();
  return workload;
}

InProcessWorkload MakeOnlineStream(std::uint64_t seed) {
  InProcessWorkload workload;
  workload.dataset = MakeScalabilityInputs(seed);
  workload.config = ScalabilityConfig(workload.dataset, "CPA-SVI");
  workload.config.svi.workers_per_batch = 100;
  workload.plan = WorkerBatches(workload.dataset, 100, seed);
  workload.refresh_every = 10;
  return workload;
}

std::vector<double> MeasureOpenSeconds(const cpa::EngineConfig& config, RunResult& result) {
  std::vector<double> seconds;
  const double until = NowMs() + 1e3;
  for (std::size_t r = 0; r < 51 && (r < 5 || NowMs() < until); ++r) {
    const double start = NowMs();
    auto engine = cpa::EngineRegistry::Global().Open(config);
    const double end = NowMs();
    result.CountOp(engine.ok() ? "" : "open: " + engine.status().ToString());
    if (engine.ok()) seconds.push_back((end - start) / 1e3);
  }
  return seconds;
}

void RunInProcessSessions(const InProcessWorkload& workload, double seconds,
                          SpanLog* spans, std::vector<EndToEndSamples>& sessions,
                          RunResult& result, std::vector<cpa::LabelSet>& first_predictions) {
  const cpa::AnswerMatrix& answers = workload.dataset.answers;
  const std::size_t num_batches = workload.plan.batches.size();
  const double deadline = NowMs() + seconds * 1e3;
  std::uint64_t session = 0;
  for (;; ++session) {
    if (session > 0 && NowMs() >= deadline) break;
    auto opened = cpa::EngineRegistry::Global().Open(workload.config);
    result.CountOp(opened.ok() ? "" : "open: " + opened.status().ToString());
    if (!opened.ok()) return;
    cpa::ConsensusEngine& engine = *opened.value();

    std::vector<Span> calls;
    const auto timed = [&](const char* name, auto&& call) {
      const double start = NowMs();
      const cpa::Status status = call();
      const double end = NowMs();
      result.CountOp(status.ok() ? "" : std::string(name) + ": " + status.ToString());
      if (spans != nullptr) calls.push_back({name, start, end, -1, session});
      return end - start;
    };
    const auto snapshot = [&] { return engine.Snapshot().status(); };

    EndToEndSamples samples;
    const double first = NowMs();
    for (std::size_t b = 0; b < num_batches; ++b) {
      samples.observe_ms.push_back(timed("engine.observe", [&] {
        return engine.Observe({&answers, workload.plan.batches[b]});
      }));
      if ((b + 1) % workload.refresh_every != 0 && b + 1 != num_batches) continue;
      samples.refresh_ms.push_back(timed("engine.refresh", snapshot));
      for (std::size_t burst = 0; burst < kPollBursts; ++burst) {
        const double ms = timed("engine.poll_burst", [&] {
          cpa::Status status;
          for (std::size_t p = 0; p < kPollsPerBurst && status.ok(); ++p) status = snapshot();
          return status;
        });
        samples.poll_ms.push_back(ms / static_cast<double>(kPollsPerBurst));
      }
    }
    cpa::SharedSnapshot final_snapshot;
    timed("engine.finalize", [&]() -> cpa::Status {
      auto finalized = engine.Finalize();
      if (finalized.ok()) final_snapshot = finalized.value();
      return finalized.status();
    });
    const double last = NowMs();
    if (final_snapshot == nullptr) return;

    samples.consensus_s.push_back((last - first) / 1e3);
    samples.answers = workload.plan.TotalAnswers();
    samples.ingest_wall_s = (last - first) / 1e3;
    samples.f1.push_back(
        cpa::ComputeSetMetrics(final_snapshot->predictions, workload.dataset.ground_truth)
            .F1());
    sessions.push_back(std::move(samples));
    if (session == 0) {
      first_predictions = final_snapshot->predictions;
    } else {
      const cpa::Status same =
          ComparePredictions(first_predictions, final_snapshot->predictions);
      if (!same.ok()) {
        result.Fail("session " + std::to_string(session) +
                    " differs from session 0: " + same.ToString());
      }
    }
    if (spans != nullptr) {
      const std::int64_t parent = spans->Record("session", first, last, -1, session);
      for (const Span& call : calls) {
        spans->Record(call.name, call.start_ms, call.end_ms, parent, session);
      }
    }
  }
}

}  // namespace perfbench
