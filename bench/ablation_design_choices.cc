/// Ablation bench for the design decisions docs/BENCHMARKS.md "Design
/// choices" documents — the places where the paper is under-specified and
/// this implementation had to choose: the unsupervised label-evidence
/// strategy, the Eq. 3 answer term, the consensus re-seeding schedule and
/// the evidence weight.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/cpa_options.h"
#include "eval/experiment.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

using namespace cpa;

namespace {

SetMetrics Run(const Dataset& dataset, const CpaOptions& options) {
  EngineConfig config = EngineConfig::ForDataset("CPA", dataset);
  config.cpa = options;
  const auto result = RunExperiment(config, dataset);
  CPA_CHECK(result.ok()) << result.status().ToString();
  return result.value().metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::ParseBenchFlags(argc, argv);
  const bench::BenchConfig config = bench::ParseBenchConfig(flags, 0.25);
  bench::CheckBenchFlags(flags);
  bench::PrintHeader(
      "Ablation — design choices of this reproduction "
      "(BENCHMARKS.md \"Design choices\")",
      "Each row switches one resolved ambiguity back to an alternative; "
      "image (strong label correlation) and movie (little correlation).",
      config);

  bench::BenchReport report("ablation_design_choices", config);
  for (PaperDatasetId id : {PaperDatasetId::kImage, PaperDatasetId::kMovie}) {
    const Dataset dataset = bench::LoadPaperDataset(id, config);
    CpaOptions base = CpaOptions::Recommended(dataset.num_items(), dataset.num_labels);
    base.max_iterations = config.cpa_iterations;

    TablePrinter table({"Configuration", "Precision", "Recall", "F1"});
    // `slug` is the stable machine-readable report key; `name` is the
    // human-facing caption and may be reworded freely.
    const auto add = [&](const char* slug, const std::string& name,
                         const CpaOptions& options) {
      const SetMetrics metrics = Run(dataset, options);
      table.AddRow({name, StrFormat("%.3f", metrics.precision),
                    StrFormat("%.3f", metrics.recall),
                    StrFormat("%.3f", metrics.F1())});
      report.Add(StrFormat("%s@%s_f1", slug, dataset.name.c_str()),
                 metrics.F1(), "fraction");
      std::fprintf(stderr, "[ablation] %s / %s done\n", dataset.name.c_str(),
                   name.c_str());
    };

    add("default", "default (reliability evidence, marginal threshold)", base);

    CpaOptions evidence = base;
    evidence.label_evidence = LabelEvidence::kAnswerFrequency;
    add("evidence_answer_frequency",
        "evidence: raw answer frequency (Appendix-B reading)", evidence);

    evidence.label_evidence = LabelEvidence::kSelfTraining;
    add("evidence_self_training",
        "evidence: self-training on its own predictions", evidence);

    evidence.label_evidence = LabelEvidence::kObservedOnly;
    add("evidence_observed_only",
        "evidence: observed-only (paper-literal Eq. 7, y = empty)", evidence);

    CpaOptions answer_term = base;
    answer_term.phi_answer_term = true;
    add("phi_answer_term",
        "phi update: + answer term (full mean-field, Eq. 3 restored)", answer_term);

    CpaOptions no_reseed = base;
    no_reseed.reseed_sweeps = 0;
    add("no_reseed",
        "seeding: bootstrap only (no consensus re-seeding sweeps)", no_reseed);

    CpaOptions literal_scale = base;
    literal_scale.evidence_scale = 1.0;
    add("evidence_scale_literal",
        "evidence weight: single pseudo-observation (paper-literal)",
        literal_scale);

    std::printf("\n%s dataset\n", dataset.name.c_str());
    table.Print();
  }
  CPA_CHECK_OK(report.Write());
  std::printf(
      "\nReading: the default should dominate or tie each single-switch "
      "alternative; 'observed-only' collapses recall (the cluster profiles "
      "never see label evidence), which is why BENCHMARKS.md argues the paper's "
      "literal Eq. 7 cannot be what its implementation did.\n");
  return 0;
}
