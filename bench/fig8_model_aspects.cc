/// Regenerates Fig 8 — the model ablation: full CPA vs "No Z" (community
/// structure removed: every worker is a singleton community) vs "No L"
/// (cluster structure removed: every item is a singleton cluster). The
/// paper's No L searched all 2^C label subsets and ran only on movie
/// (22 labels); this No L predicts with the same marginal threshold as
/// CPA, so it runs on every dataset whose I·M·C confusion bank fits
/// `no_l_parameter_limit`, and a refused run prints "intractable".

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "eval/experiment.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

using namespace cpa;

int main(int argc, char** argv) {
  const Flags flags = bench::ParseBenchFlags(argc, argv);
  const bench::BenchConfig config = bench::ParseBenchConfig(flags);
  bench::CheckBenchFlags(flags);
  bench::PrintHeader("Fig 8 — effects of model aspects (CPA vs No Z vs No L)",
                     "R1 ablation: worker communities; R3 ablation: item "
                     "clusters.",
                     config);

  TablePrinter precision({"Dataset", "CPA", "No Z", "No L"});
  TablePrinter recall({"Dataset", "CPA", "No Z", "No L"});
  bench::BenchReport report("fig8_model_aspects", config);
  for (PaperDatasetId id : AllPaperDatasets()) {
    const Dataset dataset = bench::LoadPaperDataset(id, config);

    std::vector<std::string> p_cells = {std::string(PaperDatasetName(id))};
    std::vector<std::string> r_cells = {std::string(PaperDatasetName(id))};
    // The ablation variants are registry methods of their own.
    for (const std::string method : {"CPA", "CPA-NoZ", "CPA-NoL"}) {
      EngineConfig engine_config = EngineConfig::ForDataset(method, dataset);
      engine_config.cpa.max_iterations = config.cpa_iterations;
      const auto result = RunExperiment(engine_config, dataset);
      if (!result.ok()) {
        // Refused by the parameter budget (`no_l_parameter_limit`).
        p_cells.push_back("intractable");
        r_cells.push_back("intractable");
        std::fprintf(stderr, "[fig8] %s/%s: %s\n", PaperDatasetName(id).data(),
                     method.c_str(), result.status().ToString().c_str());
        continue;
      }
      p_cells.push_back(StrFormat("%.2f", result.value().metrics.precision));
      r_cells.push_back(StrFormat("%.2f", result.value().metrics.recall));
      report.Add(StrFormat("%s@%s_precision", method.c_str(),
                           PaperDatasetName(id).data()),
                 result.value().metrics.precision, "fraction");
      report.Add(StrFormat("%s@%s_recall", method.c_str(),
                           PaperDatasetName(id).data()),
                 result.value().metrics.recall, "fraction");
      std::fprintf(stderr, "[fig8] %s/%s done in %.1fs\n",
                   PaperDatasetName(id).data(), method.c_str(),
                   result.value().seconds);
    }
    precision.AddRow(p_cells);
    recall.AddRow(r_cells);
  }
  std::printf("\nPrecision\n");
  precision.Print();
  std::printf("\nRecall\n");
  recall.Print();
  CPA_CHECK_OK(report.Write());
  std::printf(
      "\nExpected shape (paper Fig 8): full CPA highest throughout; No Z "
      "(no communities) loses precision most — communities identify faulty "
      "workers; No L (no clusters) loses recall most — clusters complete "
      "missing labels via co-occurrence. The paper's No L searched all 2^C "
      "label subsets and ran only on movie; this No L thresholds the same "
      "marginals as CPA, so it runs on every dataset.\n");
  return 0;
}
