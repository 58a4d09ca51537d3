/// Regenerates Table 4 — overall precision/recall of MV, EM, cBCC and CPA
/// on the five datasets.

#include <cstdio>

#include "bench/bench_util.h"
#include "eval/experiment.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

using namespace cpa;

int main(int argc, char** argv) {
  const Flags flags = bench::ParseBenchFlags(argc, argv);
  const bench::BenchConfig config = bench::ParseBenchConfig(flags);
  bench::CheckBenchFlags(flags);
  bench::PrintHeader("Table 4 — overall accuracy",
                     "Precision / recall of MV, EM (Dawid-Skene), cBCC and CPA "
                     "on the five simulated datasets (y = empty, fully "
                     "unsupervised).",
                     config);

  const std::vector<std::string> methods = PaperMethodNames();

  TablePrinter precision({"Dataset", "MV", "EM", "cBCC", "CPA"});
  TablePrinter recall({"Dataset", "MV", "EM", "cBCC", "CPA"});
  bench::BenchReport report("table4_accuracy", config);
  for (PaperDatasetId id : AllPaperDatasets()) {
    const Dataset dataset = bench::LoadPaperDataset(id, config);
    std::vector<std::string> p_cells = {std::string(PaperDatasetName(id))};
    std::vector<std::string> r_cells = {std::string(PaperDatasetName(id))};
    for (const std::string& method : methods) {
      EngineConfig engine_config = EngineConfig::ForDataset(method, dataset);
      engine_config.cpa.max_iterations = config.cpa_iterations;
      const auto result = RunExperiment(engine_config, dataset);
      if (!result.ok()) {
        std::fprintf(stderr, "%s on %s failed: %s\n", method.c_str(),
                     dataset.name.c_str(), result.status().ToString().c_str());
        p_cells.push_back("n/a");
        r_cells.push_back("n/a");
        continue;
      }
      p_cells.push_back(StrFormat("%.2f", result.value().metrics.precision));
      r_cells.push_back(StrFormat("%.2f", result.value().metrics.recall));
      report.Add(StrFormat("%s@%s_precision", method.c_str(), dataset.name.c_str()),
                 result.value().metrics.precision, "fraction");
      report.Add(StrFormat("%s@%s_recall", method.c_str(), dataset.name.c_str()),
                 result.value().metrics.recall, "fraction");
      report.Add(StrFormat("%s@%s_fit", method.c_str(), dataset.name.c_str()),
                 result.value().seconds, "s");
      std::fprintf(stderr, "[table4] %s/%s done in %.1fs\n", dataset.name.c_str(),
                   method.c_str(), result.value().seconds);
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
      "\nPaper Table 4 (precision): image .65/.66/.70/.81, topic .57/.60/.62/.79, "
      "aspect .52/.61/.65/.74, entity .63/.57/.60/.79, movie .61/.74/.78/.80\n"
      "Paper Table 4 (recall):    image .57/.62/.63/.74, topic .54/.54/.55/.70, "
      "aspect .53/.56/.60/.64, entity .55/.50/.53/.70, movie .56/.68/.70/.73\n"
      "Expected shape: CPA highest on every dataset; the margin is largest on "
      "the strongly label-correlated datasets (image, topic, entity).\n");
  return 0;
}
