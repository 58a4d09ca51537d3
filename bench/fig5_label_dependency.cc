/// Regenerates Fig 5 — effects of label dependencies on the entity
/// dataset (the most strongly correlated one). Missing true labels are
/// added to answers that contain at least one correct label
/// (dependency-aware workers); each method's performance on the ORIGINAL
/// answers is reported as a ratio of its performance on the ENRICHED
/// answers. A low ratio = the method loses a lot by not exploiting the
/// dependencies itself. Baseline = cBCC.

#include <cstdio>

#include "bench/bench_util.h"
#include "eval/experiment.h"
#include "simulation/perturbations.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

using namespace cpa;

int main(int argc, char** argv) {
  const Flags flags = bench::ParseBenchFlags(argc, argv);
  const bench::BenchConfig config = bench::ParseBenchConfig(flags);
  bench::CheckBenchFlags(flags);
  bench::PrintHeader(
      "Fig 5 — effects of label dependency (entity dataset)",
      "Ratio of each method's original performance to its performance when "
      "the co-occurring labels are made explicit in the answers.",
      config);

  const Dataset dataset = bench::LoadPaperDataset(PaperDatasetId::kEntity, config);
  const std::vector<std::string> methods = {"cBCC", "CPA"};

  std::map<std::string, SetMetrics> original;
  for (const std::string& method : methods) {
    EngineConfig engine_config = EngineConfig::ForDataset(method, dataset);
    engine_config.cpa.max_iterations = config.cpa_iterations;
    const auto result = RunExperiment(engine_config, dataset);
    if (result.ok()) original[method] = result.value().metrics;
    std::fprintf(stderr, "[fig5] %s baseline done\n", method.c_str());
  }

  TablePrinter table({"Dependency%", "dP cBCC", "dP CPA", "dR cBCC", "dR CPA"});
  bench::BenchReport report("fig5_label_dependency", config);
  for (const int level : {10, 15, 20, 25, 30}) {
    Rng rng(config.seed ^ 0xF1605ULL);
    const auto enriched =
        InjectLabelDependencies(dataset, level / 100.0, rng);
    if (!enriched.ok()) {
      std::fprintf(stderr, "enrichment failed: %s\n",
                   enriched.status().ToString().c_str());
      return 1;
    }
    std::map<std::string, SetMetrics> with;
    for (const std::string& method : methods) {
      EngineConfig engine_config = EngineConfig::ForDataset(method, enriched.value());
      engine_config.cpa.max_iterations = config.cpa_iterations;
      const auto result = RunExperiment(engine_config, enriched.value());
      if (result.ok()) with[method] = result.value().metrics;
    }
    const auto ratio = [&](const std::string& method, bool use_precision) {
      const double enriched_value = use_precision ? with[method].precision
                                                  : with[method].recall;
      const double original_value = use_precision ? original[method].precision
                                                  : original[method].recall;
      return enriched_value > 0.0 ? original_value / enriched_value : 0.0;
    };
    table.AddRow({StrFormat("%d", level), StrFormat("%.2f", ratio("cBCC", true)),
                  StrFormat("%.2f", ratio("CPA", true)),
                  StrFormat("%.2f", ratio("cBCC", false)),
                  StrFormat("%.2f", ratio("CPA", false))});
    for (const std::string& method : methods) {
      report.Add(StrFormat("%s@%d%%_dependency_precision_ratio", method.c_str(),
                           level),
                 ratio(method, true), "ratio");
      report.Add(StrFormat("%s@%d%%_dependency_recall_ratio", method.c_str(),
                           level),
                 ratio(method, false), "ratio");
    }
    std::fprintf(stderr, "[fig5] dependency %d%% done\n", level);
  }
  table.Print();
  CPA_CHECK_OK(report.Write());
  std::printf(
      "\nExpected shape (paper Fig 5): the baseline's ratio drops steeply as "
      "the dependency level grows (at 30%% it loses nearly half of precision "
      "and more than half of recall relative to dependency-aware answers); "
      "CPA's ratio stays much closer to 1 because it already exploits the "
      "co-occurrence structure.\n");
  return 0;
}
