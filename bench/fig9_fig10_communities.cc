/// Regenerates Fig 9 (worker communities per label: sensitivity vs
/// specificity scatter with the communities CPA infers, for the image and
/// entity datasets) and Fig 10 (Appendix A: the two-coin characterisation
/// of the simulated worker population).

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "core/cpa.h"
#include "eval/metrics.h"
#include "simulation/worker_profile.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

using namespace cpa;

namespace {

void PrintLabelCommunities(const Dataset& dataset, const CpaModel& model,
                           LabelId label, const char* label_name) {
  const auto stats = ComputeWorkerLabelStats(dataset.answers, dataset.ground_truth,
                                             label);
  // Bucket the (specificity, sensitivity) plane per inferred community.
  std::map<std::size_t, std::vector<const WorkerLabelStats*>> by_community;
  for (const auto& s : stats) {
    if (s.positives < 3) continue;  // too few items carrying the label
    by_community[model.WorkerCommunity(s.worker)].push_back(&s);
  }
  std::printf("\nlabel #%s (%u): %zu inferred communities among workers with >=3 "
              "labelled items\n",
              label_name, label, by_community.size());
  for (const auto& [community, members] : by_community) {
    double sens = 0.0;
    double spec = 0.0;
    for (const auto* s : members) {
      sens += s->sensitivity;
      spec += s->specificity;
    }
    std::printf("  community %2zu: %3zu workers, centroid sens=%.2f spec=%.2f\n",
                community, members.size(), sens / members.size(),
                spec / members.size());
  }
}

/// The label carried by the most answered items (a "popular" label, like
/// the paper's #sky / #product examples).
LabelId PopularLabel(const Dataset& dataset, std::size_t rank) {
  std::vector<std::size_t> counts(dataset.num_labels, 0);
  for (ItemId i = 0; i < dataset.num_items(); ++i) {
    for (LabelId c : dataset.ground_truth[i]) ++counts[c];
  }
  std::vector<LabelId> order(dataset.num_labels);
  for (LabelId c = 0; c < dataset.num_labels; ++c) order[c] = c;
  std::sort(order.begin(), order.end(),
            [&](LabelId a, LabelId b) { return counts[a] > counts[b]; });
  return order[std::min(rank, order.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::ParseBenchFlags(argc, argv);
  const bench::BenchConfig config = bench::ParseBenchConfig(flags);
  bench::CheckBenchFlags(flags);
  bench::PrintHeader(
      "Fig 9 + Fig 10 — worker communities and worker types",
      "Fig 9: per-label sensitivity/specificity of workers, grouped by the "
      "community CPA infers. Fig 10: the two-coin characterisation of the "
      "simulated population.",
      config);

  bench::BenchReport report("fig9_fig10_communities", config);

  // --- Fig 9 on image and entity.
  for (PaperDatasetId id : {PaperDatasetId::kImage, PaperDatasetId::kEntity}) {
    const Dataset dataset = bench::LoadPaperDataset(id, config);
    CpaOptions options =
        CpaOptions::Recommended(dataset.num_items(), dataset.num_labels);
    options.max_iterations = config.cpa_iterations;
    CpaAggregator cpa(options);
    const auto result = cpa.Aggregate(dataset.answers, dataset.num_labels);
    if (!result.ok()) {
      std::fprintf(stderr, "fit failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("\nFig 9 — %s dataset (effective communities: %zu of %zu)\n",
                dataset.name.c_str(), cpa.model()->EffectiveCommunities(1.0),
                cpa.model()->num_communities());
    report.Add(StrFormat("effective_communities@%s", dataset.name.c_str()),
               static_cast<double>(cpa.model()->EffectiveCommunities(1.0)),
               "communities");
    PrintLabelCommunities(dataset, *cpa.model(), PopularLabel(dataset, 0), "top-1");
    PrintLabelCommunities(dataset, *cpa.model(), PopularLabel(dataset, 1), "top-2");
  }

  // --- Fig 10: simulated population, pooled sensitivity/specificity per type.
  std::printf("\nFig 10 — two-coin characterisation of the simulated population\n");
  const Dataset dataset = bench::LoadPaperDataset(PaperDatasetId::kImage, config);
  // Worker archetypes are classified from empirical behaviour (the factory
  // draws types internally); buckets correspond to Appendix A's regions.
  const auto stats = ComputeWorkerOverallStats(dataset.answers, dataset.ground_truth,
                                               dataset.num_labels);
  TablePrinter table({"Worker bucket", "#workers", "sensitivity", "specificity"});
  std::map<std::string, std::vector<const WorkerLabelStats*>> buckets;
  for (const auto& s : stats) {
    const char* bucket = s.sensitivity > 0.75   ? "reliable-like"
                         : s.sensitivity > 0.35 ? "sloppy-like"
                                                : "spammer-like";
    buckets[bucket].push_back(&s);
  }
  for (const auto& [bucket, members] : buckets) {
    double sens = 0.0;
    double spec = 0.0;
    for (const auto* s : members) {
      sens += s->sensitivity;
      spec += s->specificity;
    }
    table.AddRow({bucket, StrFormat("%zu", members.size()),
                  StrFormat("%.2f", sens / members.size()),
                  StrFormat("%.2f", spec / members.size())});
    report.Add(StrFormat("%s_workers", bucket.c_str()),
               static_cast<double>(members.size()), "workers");
    report.Add(StrFormat("%s_sensitivity", bucket.c_str()),
               sens / members.size(), "fraction");
    report.Add(StrFormat("%s_specificity", bucket.c_str()),
               spec / members.size(), "fraction");
  }
  table.Print();
  CPA_CHECK_OK(report.Write());
  std::printf(
      "\nExpected shape (paper Fig 9/10): multiple communities per label with "
      "different centroids; different labels have different community "
      "structure (calls for the nonparametric model, R4). The population "
      "scatter separates reliable (high/high), sloppy (low sens, high spec) "
      "and spammer clouds, echoing the Section 5.1 simulation mix of "
      "43/32/25.\n");
  return 0;
}
