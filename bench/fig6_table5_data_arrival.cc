/// Regenerates Fig 6 (online vs offline accuracy as data arrives, image
/// dataset) and Table 5 (online vs offline at 100% for all five datasets,
/// with deviation across shuffles).
///
/// Both sides run through the engine API: "CPA-SVI" sessions stream the
/// arrival batches (Algorithm 2), and the offline reference re-fits by
/// opening a fresh "CPA" session per prefix (the accumulate-then-refit
/// adapter is exactly "full VI on the data so far").
///
/// `--quick` shrinks scale/runs/sweeps so the whole bench finishes in a
/// couple of minutes (explicit `--scale` / `--runs` / `--cpa-iterations`
/// still win).

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "engine/engine_registry.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "simulation/perturbations.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

using namespace cpa;

namespace {

EngineConfig MethodConfig(const std::string& method, const Dataset& dataset,
                          const bench::BenchConfig& bench_config) {
  EngineConfig config = EngineConfig::ForDataset(method, dataset);
  config.cpa.max_iterations = bench_config.cpa_iterations;
  return config;
}

std::unique_ptr<ConsensusEngine> MustOpen(const EngineConfig& config) {
  auto engine = EngineRegistry::Global().Open(config);
  CPA_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// One full online pass over `plan`; per-step metrics when `record_steps`.
StreamingExperimentResult RunOnline(const Dataset& dataset,
                                    const bench::BenchConfig& bench_config,
                                    const BatchPlan& plan, bool record_steps) {
  auto engine = MustOpen(MethodConfig("CPA-SVI", dataset, bench_config));
  auto run = RunStreamingExperiment(*engine, dataset, plan, record_steps);
  CPA_CHECK(run.ok()) << run.status().ToString();
  return std::move(run).value();
}

/// Offline VI re-run on the first `steps_taken` arrival batches.
SetMetrics RunOfflinePrefix(const Dataset& dataset,
                            const bench::BenchConfig& bench_config,
                            const BatchPlan& plan, std::size_t steps_taken) {
  BatchPlan prefix;
  prefix.batches.assign(plan.batches.begin(), plan.batches.begin() + steps_taken);
  auto engine = MustOpen(MethodConfig("CPA", dataset, bench_config));
  auto run = RunStreamingExperiment(*engine, dataset, prefix,
                                    /*score_each_batch=*/false);
  CPA_CHECK(run.ok()) << run.status().ToString();
  return run.value().final_result.metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::ParseBenchFlags(argc, argv);
  bench::BenchConfig config = bench::ParseBenchConfig(flags, 0.35, 3);
  if (flags.GetBool("quick", false)) {
    if (!flags.Has("scale")) config.scale = 0.15;
    if (!flags.Has("runs")) config.runs = 2;
    if (!flags.Has("cpa-iterations")) config.cpa_iterations = 15;
  }
  bench::CheckBenchFlags(flags);
  bench::PrintHeader(
      "Fig 6 + Table 5 — effects of data arrival (online vs offline CPA)",
      "Answers arrive in 10% steps; online = stochastic variational "
      "inference (Algorithm 2), offline = full VI re-run on the data so far. "
      "Both drive EngineRegistry sessions.",
      config);

  bench::BenchReport report("fig6_table5_data_arrival", config);

  // --- Fig 6: image dataset, accuracy after each arrival step.
  {
    const Dataset dataset = bench::LoadPaperDataset(PaperDatasetId::kImage, config);
    Rng rng(config.seed ^ 0xF160ULL);
    const BatchPlan plan = MakeArrivalSchedule(dataset.answers, 10, rng);
    const StreamingExperimentResult online = RunOnline(dataset, config, plan, true);

    TablePrinter table({"Arrival%", "P online", "P offline", "R online", "R offline"});
    for (std::size_t step = 1; step <= 10; ++step) {
      const SetMetrics offline = RunOfflinePrefix(dataset, config, plan, step);
      const SetMetrics& online_metrics = online.steps[step - 1].metrics;
      table.AddRow({StrFormat("%zu0", step),
                    StrFormat("%.2f", online_metrics.precision),
                    StrFormat("%.2f", offline.precision),
                    StrFormat("%.2f", online_metrics.recall),
                    StrFormat("%.2f", offline.recall)});
      report.Add(StrFormat("online@%zu0%%_arrival_precision", step),
                 online_metrics.precision, "fraction");
      report.Add(StrFormat("offline@%zu0%%_arrival_precision", step),
                 offline.precision, "fraction");
      report.Add(StrFormat("online@%zu0%%_arrival_recall", step),
                 online_metrics.recall, "fraction");
      report.Add(StrFormat("offline@%zu0%%_arrival_recall", step),
                 offline.recall, "fraction");
      std::fprintf(stderr, "[fig6] arrival %zu0%% done\n", step);
    }
    std::printf("\nFig 6 (image dataset)\n");
    table.Print();
  }

  // --- Table 5: all five datasets at 100%, mean +- deviation over shuffles.
  std::printf("\nTable 5 — accuracy at 100%% data arrival\n");
  TablePrinter table(
      {"Dataset", "P online", "P offline", "R online", "R offline"});
  for (PaperDatasetId id : AllPaperDatasets()) {
    const Dataset dataset = bench::LoadPaperDataset(id, config);

    double p_sum = 0.0, p_sq = 0.0, r_sum = 0.0, r_sq = 0.0;
    for (std::size_t run = 0; run < config.runs; ++run) {
      Rng rng(config.seed + 31 * run + 7);
      const BatchPlan plan = MakeArrivalSchedule(dataset.answers, 10, rng);
      const StreamingExperimentResult online = RunOnline(dataset, config, plan, false);
      const SetMetrics& metrics = online.final_result.metrics;
      p_sum += metrics.precision;
      p_sq += metrics.precision * metrics.precision;
      r_sum += metrics.recall;
      r_sq += metrics.recall * metrics.recall;
    }
    const double n = static_cast<double>(config.runs);
    const double p_mean = p_sum / n;
    const double r_mean = r_sum / n;
    const double p_dev = std::sqrt(std::max(0.0, p_sq / n - p_mean * p_mean));
    const double r_dev = std::sqrt(std::max(0.0, r_sq / n - r_mean * r_mean));

    auto offline_engine = MustOpen(MethodConfig("CPA", dataset, config));
    const auto offline_result = RunExperiment(*offline_engine, dataset);
    CPA_CHECK(offline_result.ok()) << offline_result.status().ToString();
    table.AddRow({std::string(PaperDatasetName(id)),
                  StrFormat("%.2f +-%.2f", p_mean, p_dev),
                  StrFormat("%.2f", offline_result.value().metrics.precision),
                  StrFormat("%.2f +-%.2f", r_mean, r_dev),
                  StrFormat("%.2f", offline_result.value().metrics.recall)});
    const char* name = PaperDatasetName(id).data();
    report.Add(StrFormat("table5_online@%s_precision", name), p_mean, "fraction");
    report.Add(StrFormat("table5_online@%s_precision_dev", name), p_dev,
               "fraction");
    report.Add(StrFormat("table5_offline@%s_precision", name),
               offline_result.value().metrics.precision, "fraction");
    report.Add(StrFormat("table5_online@%s_recall", name), r_mean, "fraction");
    report.Add(StrFormat("table5_online@%s_recall_dev", name), r_dev, "fraction");
    report.Add(StrFormat("table5_offline@%s_recall", name),
               offline_result.value().metrics.recall, "fraction");
    std::fprintf(stderr, "[table5] %s done\n", PaperDatasetName(id).data());
  }
  table.Print();
  CPA_CHECK_OK(report.Write());
  std::printf(
      "\nExpected shape (paper Fig 6/Table 5): online tracks offline from "
      "below, the gap shrinking as data arrives; at 100%% online is a few "
      "points behind offline on every dataset (paper image: 0.76 vs 0.81 "
      "precision, 0.70 vs 0.74 recall).\n");
  return 0;
}
