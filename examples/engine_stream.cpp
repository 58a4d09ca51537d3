/// The engine API in one page: every consensus method — offline baselines
/// and the online learner alike — behind one streaming session lifecycle
/// (`Open → Observe → Snapshot → Finalize`), selected by registry name.
///
///   $ ./engine_stream                        # CPA-SVI on the topic dataset
///   $ ./engine_stream --method MV            # same stream, majority vote
///   $ ./engine_stream --method CPA --batches 4 --scale 0.1
///
/// Offline methods re-fit on everything seen when snapshotted (watch their
/// per-batch cost grow); CPA-SVI pays one incremental step per batch.

#include <cstdio>
#include <string>

#include "engine/engine_registry.h"
#include "eval/experiment.h"
#include "simulation/dataset_factory.h"
#include "simulation/perturbations.h"
#include "util/flags.h"

using namespace cpa;

/// Range of the count flags: a negative count would wrap through size_t.
constexpr long long kMaxBatches = 100000;

int main(int argc, char** argv) {
  const auto flags = Flags::Parse(argc, argv);
  CPA_CHECK(flags.ok()) << flags.status().ToString();
  FactoryOptions factory_options;
  factory_options.scale = flags.value().GetDouble("scale", 0.15);
  const std::size_t steps =
      static_cast<std::size_t>(flags.value().GetIntInRange("batches", 5, 1, kMaxBatches));

  auto dataset = MakePaperDataset(PaperDatasetId::kTopic, factory_options);
  CPA_CHECK(dataset.ok()) << dataset.status().ToString();
  const Dataset& d = dataset.value();

  std::printf("registered methods:");
  for (const std::string& name : EngineRegistry::Global().MethodNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");

  auto config = EngineConfig::ForDataset("CPA-SVI", d).WithFlags(flags.value());
  CPA_CHECK(config.ok()) << config.status().ToString();
  CPA_CHECK_OK(flags.value().CheckAllRead());
  // The config (method + dimensions + typed options) is serializable —
  // this JSON round-trips through EngineConfig::FromJson.
  std::printf("config: %s\n\n", config.value().ToJson().Dump().c_str());

  auto engine = EngineRegistry::Global().Open(config.value());
  CPA_CHECK(engine.ok()) << engine.status().ToString();

  Rng rng(11);
  const BatchPlan plan = MakeArrivalSchedule(d.answers, steps, rng);
  auto run = RunStreamingExperiment(*engine.value(), d, plan);
  CPA_CHECK(run.ok()) << run.status().ToString();

  std::printf("%s over %zu batches of the %s stream:\n",
              std::string(engine.value()->name()).c_str(), plan.num_batches(),
              d.name.c_str());
  std::printf("batch   answers   precision   recall     t(s)\n");
  for (const StreamingStepResult& step : run.value().steps) {
    std::printf("%5zu   %7zu   %9.3f   %6.3f   %6.2f\n", step.batches_seen,
                step.answers_seen, step.metrics.precision, step.metrics.recall,
                step.seconds);
  }
  const ExperimentResult& final_result = run.value().final_result;
  std::printf("final   %7zu   %9.3f   %6.3f   %6.2f\n",
              engine.value()->answers_seen(), final_result.metrics.precision,
              final_result.metrics.recall, final_result.seconds);
  CPA_CHECK(engine.value()->finalized());
  return 0;
}
