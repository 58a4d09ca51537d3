#ifndef PERFBENCH_IN_PROCESS_H_
#define PERFBENCH_IN_PROCESS_H_

/// \file in_process.h
/// \brief The two in-process workloads, `offline-fit` and `online-stream`:
/// registry sessions over the Fig 7 scalability simulation.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench_stats.h"
#include "data/dataset.h"
#include "engine/engine_config.h"
#include "report.h"
#include "simulation/perturbations.h"

namespace perfbench {

/// Threads of every in-process sweep pool (and of the server's pool).
inline constexpr std::size_t kSweepThreads = 2;

/// Cached polls after every refresh of an in-process session: a cached
/// `Snapshot()` takes ~30 ns, close to the clock's own cost, so polls are
/// timed in bursts and each burst's mean per poll is one sample.
inline constexpr std::size_t kPollBursts = 50;
inline constexpr std::size_t kPollsPerBurst = 100;

/// \brief One in-process workload: the generated inputs and the session
/// plan. Batches are fed in order; a refresh snapshot follows every
/// `refresh_every`-th batch and the last one.
struct InProcessWorkload {
  cpa::Dataset dataset;
  cpa::EngineConfig config;
  cpa::BatchPlan plan;
  std::size_t refresh_every = 1;
};

/// Fig 7 scalability simulation: 10^4 items x 10^4 workers x 10 labels at
/// 10 workers per item (100k answers), seeded by `seed`.
cpa::Dataset MakeScalabilityInputs(std::uint64_t seed);

/// `offline-fit`: one "CPA" session (VI + PredictLabels) fed
/// `MakeWorkerBatches(..., 400)` batches (25), then one refresh (the single
/// fit), `cpa.max_iterations = 10`, 2 sweep threads. One 100k-answer
/// `Observe` would be a single 0.25 ms burst of page faults whose
/// run-to-run spread exceeded 25%; 25 samples per session are steadier.
InProcessWorkload MakeOfflineFit(std::uint64_t seed);

/// `online-stream`: one "CPA-SVI" session over the same answers in
/// `MakeWorkerBatches(..., 100)` batches, a refresh every 10th batch.
InProcessWorkload MakeOnlineStream(std::uint64_t seed);

/// Times registry `Open` calls of `config` (set-up time): at least 5, then
/// more until a second has passed, at most 51.
std::vector<double> MeasureOpenSeconds(const cpa::EngineConfig& config, RunResult& result);

/// Runs back-to-back sessions until `seconds` have passed (at least one),
/// appending one set of end-to-end samples per session (sessions are the
/// chunks metrics are taken over). Every session's final predictions must
/// equal the first session's; `first_predictions` receives them. When
/// `spans` is non-null each call is recorded as a span of its session.
void RunInProcessSessions(const InProcessWorkload& workload, double seconds,
                          SpanLog* spans, std::vector<EndToEndSamples>& sessions,
                          RunResult& result, std::vector<cpa::LabelSet>& first_predictions);

}  // namespace perfbench

#endif  // PERFBENCH_IN_PROCESS_H_
