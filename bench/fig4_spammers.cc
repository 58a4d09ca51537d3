/// Regenerates Fig 4 — robustness to spammers: answers from injected
/// spammer workers make up 20% / 40% of the data; precision/recall are
/// reported relative to the 0%-spam performance of the same method
/// (ΔPrecision, ΔRecall as ratios). Baseline = cBCC, the strongest
/// baseline, as in the paper.

#include <cstdio>
#include <map>

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
      "Fig 4 — effects of spammers (ratio vs spammer-free performance)",
      "Spam answers are injected until they make up 20% / 40% of all answers.",
      config);

  const std::vector<std::string> methods = {"cBCC", "CPA"};

  bench::BenchReport report("fig4_spammers", config);
  for (const double spam_fraction : {0.2, 0.4}) {
    TablePrinter table({"Dataset", "dP cBCC", "dP CPA", "dR cBCC", "dR CPA"});
    for (PaperDatasetId id : AllPaperDatasets()) {
      const Dataset dataset = bench::LoadPaperDataset(id, config);
      Rng rng(config.seed ^ 0xF1604ULL);
      SpammerInjectionOptions options;
      options.spam_answer_fraction = spam_fraction;
      const auto spammed = InjectSpammers(dataset, options, rng);
      if (!spammed.ok()) {
        std::fprintf(stderr, "injection failed: %s\n",
                     spammed.status().ToString().c_str());
        return 1;
      }
      std::map<std::string, SetMetrics> clean;
      std::map<std::string, SetMetrics> noisy;
      for (const std::string& method : methods) {
        EngineConfig clean_config = EngineConfig::ForDataset(method, dataset);
        clean_config.cpa.max_iterations = config.cpa_iterations;
        EngineConfig noisy_config = EngineConfig::ForDataset(method, spammed.value());
        noisy_config.cpa.max_iterations = config.cpa_iterations;
        const auto clean_result = RunExperiment(clean_config, dataset);
        const auto noisy_result = RunExperiment(noisy_config, spammed.value());
        if (clean_result.ok()) clean[method] = clean_result.value().metrics;
        if (noisy_result.ok()) noisy[method] = noisy_result.value().metrics;
      }
      const auto ratio = [&](const std::string& method, bool use_precision) {
        const double base = use_precision ? clean[method].precision
                                          : clean[method].recall;
        const double with = use_precision ? noisy[method].precision
                                          : noisy[method].recall;
        return base > 0.0 ? with / base : 0.0;
      };
      table.AddRow({std::string(PaperDatasetName(id)),
                    StrFormat("%.2f", ratio("cBCC", true)),
                    StrFormat("%.2f", ratio("CPA", true)),
                    StrFormat("%.2f", ratio("cBCC", false)),
                    StrFormat("%.2f", ratio("CPA", false))});
      for (const std::string& method : methods) {
        report.Add(StrFormat("%s@%s_%.0f%%_spam_precision_ratio", method.c_str(),
                             PaperDatasetName(id).data(), spam_fraction * 100),
                   ratio(method, true), "ratio");
        report.Add(StrFormat("%s@%s_%.0f%%_spam_recall_ratio", method.c_str(),
                             PaperDatasetName(id).data(), spam_fraction * 100),
                   ratio(method, false), "ratio");
      }
      std::fprintf(stderr, "[fig4] %s @ %.0f%% spam done\n",
                   PaperDatasetName(id).data(), spam_fraction * 100);
    }
    std::printf("\nSpammer ratio = %.0f%%\n", spam_fraction * 100);
    table.Print();
  }
  CPA_CHECK_OK(report.Write());
  std::printf(
      "\nExpected shape (paper Fig 4): at 20%% both methods stay near 1.0; at "
      "40%% cBCC loses clearly more (paper aspect example: cBCC precision "
      "0.65 -> 0.51 while CPA stays ~constant). CPA ratios should dominate "
      "cBCC ratios everywhere.\n");
  return 0;
}
