/// Image tagging end-to-end: simulate a NUS-WIDE-style crowdsourcing
/// campaign (the paper's image dataset), aggregate with every paper method
/// through `EngineRegistry` sessions, and inspect what the CPA posterior
/// learned about the crowd.
///
///   $ ./image_tagging [--scale 0.25] [--seed 7] [--num-threads 2]

#include <cstdio>
#include <memory>

#include "data/dataset_stats.h"
#include "core/cpa.h"
#include "engine/engine_registry.h"
#include "engine/offline_engine.h"
#include "eval/experiment.h"
#include "simulation/dataset_factory.h"
#include "util/flags.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

using namespace cpa;

int main(int argc, char** argv) {
  const auto flags = Flags::Parse(argc, argv);
  CPA_CHECK(flags.ok()) << flags.status().ToString();
  FactoryOptions factory_options;
  factory_options.scale = flags.value().GetDouble("scale", 0.25);
  factory_options.seed =
      static_cast<std::uint64_t>(flags.value().GetInt("seed", 20180417));

  // --- Simulate the campaign.
  auto dataset = MakePaperDataset(PaperDatasetId::kImage, factory_options);
  CPA_CHECK(dataset.ok()) << dataset.status().ToString();
  const DatasetStats stats = ComputeDatasetStats(dataset.value());
  std::printf("simulated image-tagging campaign: %zu pictures, %zu workers, "
              "%zu answers over %zu tags (%.1f answers per picture)\n\n",
              stats.num_questions, stats.num_workers, stats.num_answers,
              stats.num_labels, stats.mean_answers_per_item);

  // --- Aggregate with each method (one registry session per method).
  TablePrinter table({"Method", "Precision", "Recall", "F1", "Time"});
  std::unique_ptr<ConsensusEngine> cpa_session;  // kept for the posterior
  for (const std::string& method : PaperMethodNames()) {
    auto config =
        EngineConfig::ForDataset(method, dataset.value()).WithFlags(flags.value());
    CPA_CHECK(config.ok()) << config.status().ToString();
    config.value().method = method;  // WithFlags may override --method
    auto engine = EngineRegistry::Global().Open(config.value());
    CPA_CHECK(engine.ok()) << method << ": " << engine.status().ToString();
    const auto result = RunExperiment(*engine.value(), dataset.value());
    CPA_CHECK(result.ok()) << method << ": " << result.status().ToString();
    table.AddRow({method, StrFormat("%.3f", result.value().metrics.precision),
                  StrFormat("%.3f", result.value().metrics.recall),
                  StrFormat("%.3f", result.value().metrics.F1()),
                  StrFormat("%.2fs", result.value().seconds)});
    if (method == "CPA") cpa_session = std::move(engine).value();
  }
  table.Print();

  // --- Inspect the posterior: communities and clusters the model formed.
  // Offline CPA sessions are a `CpaAggregator` behind `OfflineEngine`.
  auto* offline = dynamic_cast<OfflineEngine*>(cpa_session.get());
  CPA_CHECK(offline != nullptr);
  const auto* cpa = dynamic_cast<const CpaAggregator*>(&offline->aggregator());
  CPA_CHECK(cpa != nullptr && cpa->model() != nullptr);
  const CpaModel& model = *cpa->model();
  std::printf("\nCPA posterior: %zu effective worker communities (of %zu), "
              "%zu effective item clusters (of %zu)\n",
              model.EffectiveCommunities(1.0), model.num_communities(),
              model.EffectiveClusters(1.0), model.num_clusters());
  const auto sizes = model.CommunitySizes();
  std::printf("community sizes:");
  for (double s : sizes) {
    if (s >= 1.0) std::printf(" %.0f", s);
  }
  std::printf("\nconverged in %zu sweeps (final change %.5f)\n",
              cpa->fit_stats().iterations, cpa->fit_stats().final_change);
  return 0;
}
