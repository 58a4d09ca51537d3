/// Regenerates Table 3 (dataset statistics) and the structure behind
/// Fig 1 (label co-occurrence clusters in the image dataset).

#include <cstdio>

#include "bench/bench_util.h"
#include "data/cooccurrence.h"
#include "data/dataset_stats.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

using namespace cpa;

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseBenchConfig(argc, argv);
  bench::PrintHeader("Table 3 + Fig 1 — dataset statistics & label co-occurrence",
                     "Simulated stand-ins for the five crowdsourced datasets "
                     "(BENCHMARKS.md \"Design choices\"); statistics follow "
                     "the published Table 3.",
                     config);

  TablePrinter table({"Quantity", "image", "topic", "aspect", "entity", "movie"});
  bench::BenchReport report("table3_fig1_datasets", config);
  std::vector<DatasetStats> stats;
  std::vector<Dataset> datasets;
  for (PaperDatasetId id : AllPaperDatasets()) {
    datasets.push_back(bench::LoadPaperDataset(id, config));
    stats.push_back(ComputeDatasetStats(datasets.back()));
    const char* name = datasets.back().name.c_str();
    report.Add(StrFormat("questions@%s", name),
               static_cast<double>(stats.back().num_questions), "count");
    report.Add(StrFormat("labels@%s", name),
               static_cast<double>(stats.back().num_labels), "count");
    report.Add(StrFormat("workers@%s", name),
               static_cast<double>(stats.back().num_workers), "count");
    report.Add(StrFormat("answers@%s", name),
               static_cast<double>(stats.back().num_answers), "count");
  }
  const auto row = [&](const std::string& name, auto getter, const char* fmt) {
    std::vector<std::string> cells = {name};
    for (const DatasetStats& s : stats) cells.push_back(StrFormat(fmt, getter(s)));
    table.AddRow(cells);
  };
  row("# Questions", [](const DatasetStats& s) { return s.num_questions; }, "%zu");
  row("# Labels", [](const DatasetStats& s) { return s.num_labels; }, "%zu");
  row("# Workers", [](const DatasetStats& s) { return s.num_workers; }, "%zu");
  row("# Answers", [](const DatasetStats& s) { return s.num_answers; }, "%zu");
  row("Answers/item", [](const DatasetStats& s) { return s.mean_answers_per_item; },
      "%.1f");
  row("Labels/answer", [](const DatasetStats& s) { return s.mean_labels_per_answer; },
      "%.2f");
  row("Labels/item (truth)",
      [](const DatasetStats& s) { return s.mean_labels_per_truth; }, "%.2f");
  row("Worker-load skew", [](const DatasetStats& s) { return s.worker_load_skewness; },
      "%.2f");
  table.Print();

  std::printf(
      "\nPaper Table 3 at full scale: questions 2000/2000/3710/2400/500, labels "
      "81/49/262/1450/22, workers 416/313/482/517/936, answers "
      "22920/15080/19780/15510/14430.\n");

  // --- Fig 1: label co-occurrence of the image ground truth.
  std::printf("\nFig 1 — strongest label co-occurrence edges (image truth):\n");
  const Dataset& image = datasets.front();
  const CooccurrenceMatrix cooc(image.num_labels, image.ground_truth);
  for (const auto& edge : cooc.TopEdges(8)) {
    std::printf("  label %3u -- label %3u   strength %.3f\n", edge.a, edge.b,
                edge.strength);
  }
  const auto clusters = cooc.Clusters(0.25);
  std::printf("label clusters at Jaccard >= 0.25: %zu (largest sizes:", clusters.size());
  for (std::size_t k = 0; k < std::min<std::size_t>(5, clusters.size()); ++k) {
    std::printf(" %zu", clusters[k].size());
  }
  std::printf(")\n");
  const double image_npmi = cooc.WeightedMeanNpmi();
  const double movie_npmi = CooccurrenceMatrix(datasets.back().num_labels,
                                               datasets.back().ground_truth)
                                .WeightedMeanNpmi();
  std::printf("weighted mean NPMI: image=%.3f movie=%.3f (strong vs little "
              "correlation, matching the Section 5.1 characterisation)\n",
              image_npmi, movie_npmi);
  report.Add("npmi@image", image_npmi, "npmi");
  report.Add("npmi@movie", movie_npmi, "npmi");
  CPA_CHECK_OK(report.Write());
  return 0;
}
