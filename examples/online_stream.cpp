/// Online aggregation: answers stream in batch by batch (Algorithm 2);
/// intermediate consensus is available at any time — the paper's §4.1
/// motivation (terminate a campaign early once quality suffices, or spot
/// tasks that are too hard).
///
/// The stream is driven through the engine API: a "CPA-SVI" session opened
/// from the registry, observed batch by batch, snapshotted between batches.
///
///   $ ./online_stream [--scale 0.25] [--batches 10]

#include <cstdio>

#include "engine/engine_registry.h"
#include "eval/metrics.h"
#include "simulation/dataset_factory.h"
#include "simulation/perturbations.h"
#include "util/flags.h"
#include "util/stopwatch.h"

using namespace cpa;

/// Range of the count flags: a negative count would wrap through size_t.
constexpr long long kMaxBatches = 100000;

int main(int argc, char** argv) {
  const auto flags = Flags::Parse(argc, argv);
  CPA_CHECK(flags.ok()) << flags.status().ToString();
  FactoryOptions factory_options;
  factory_options.scale = flags.value().GetDouble("scale", 0.25);
  const std::size_t steps = static_cast<std::size_t>(
      flags.value().GetIntInRange("batches", 10, 1, kMaxBatches));

  auto dataset = MakePaperDataset(PaperDatasetId::kTopic, factory_options);
  CPA_CHECK(dataset.ok()) << dataset.status().ToString();
  const Dataset& d = dataset.value();
  std::printf("streaming %zu answers for %zu tweets in %zu batches\n\n",
              d.answers.num_answers(), d.num_items(), steps);

  auto config = EngineConfig::ForDataset("CPA-SVI", d).WithFlags(flags.value());
  CPA_CHECK(config.ok()) << config.status().ToString();
  CPA_CHECK_OK(flags.value().CheckAllRead());
  auto engine = EngineRegistry::Global().Open(config.value());
  CPA_CHECK(engine.ok()) << engine.status().ToString();

  Rng rng(7);
  const BatchPlan plan = MakeArrivalSchedule(d.answers, steps, rng);
  Stopwatch total;
  std::printf("batch   answers-so-far   precision   recall   learn-rate   t(s)\n");
  std::printf("------------------------------------------------------------------\n");
  for (std::size_t step = 0; step < plan.num_batches(); ++step) {
    CPA_CHECK_OK(engine.value()->Observe({&d.answers, plan.batches[step]}));
    const auto snapshot = engine.value()->Snapshot();
    CPA_CHECK(snapshot.ok()) << snapshot.status().ToString();
    const SetMetrics metrics =
        ComputeSetMetrics(snapshot.value()->predictions, d.ground_truth);
    std::printf("%5zu   %14zu   %9.3f   %6.3f   %10.3f   %4.1f\n", step + 1,
                snapshot.value()->answers_seen, metrics.precision, metrics.recall,
                snapshot.value()->learning_rate, total.ElapsedSeconds());
  }
  const auto final_snapshot = engine.value()->Finalize();
  CPA_CHECK(final_snapshot.ok()) << final_snapshot.status().ToString();
  std::printf(
      "\nAccuracy climbs as answers arrive; the final consensus is computed "
      "without ever re-fitting the model from scratch (compare the offline "
      "re-fit cost in bench/fig7_runtime).\n");
  return 0;
}
