/// Crowd audit: inject spammers into a campaign, let CPA identify the
/// unreliable worker communities, and print the audit report a
/// requester could act on (which workers to block, which answers to
/// discount) — the (R1) use case behind Fig 4.
///
///   $ ./spammer_audit [--scale 0.25] [--spam 0.3]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/cpa.h"
#include "core/sweep/answer_view.h"
#include "core/sweep/sweep_kernels.h"
#include "core/sweep/sweep_scheduler.h"
#include "eval/experiment.h"
#include "simulation/dataset_factory.h"
#include "simulation/perturbations.h"
#include "util/flags.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

using namespace cpa;

int main(int argc, char** argv) {
  const auto flags = Flags::Parse(argc, argv);
  CPA_CHECK(flags.ok()) << flags.status().ToString();
  FactoryOptions factory_options;
  factory_options.scale = flags.value().GetDouble("scale", 0.25);
  const double spam_fraction = flags.value().GetDouble("spam", 0.3);
  CPA_CHECK_OK(flags.value().CheckAllRead());

  auto clean = MakePaperDataset(PaperDatasetId::kTopic, factory_options);
  CPA_CHECK(clean.ok()) << clean.status().ToString();
  Rng rng(11);
  SpammerInjectionOptions injection;
  injection.spam_answer_fraction = spam_fraction;
  auto dataset = InjectSpammers(clean.value(), injection, rng);
  CPA_CHECK(dataset.ok()) << dataset.status().ToString();
  const std::size_t original_workers = clean.value().num_workers();
  const Dataset& d = dataset.value();
  std::printf("campaign with %zu workers; workers #%zu..#%zu are injected "
              "spammers contributing %.0f%% of all answers\n\n",
              d.num_workers(), original_workers, d.num_workers() - 1,
              spam_fraction * 100);

  // --- Fit CPA and pull the per-worker reliability the model inferred.
  CpaOptions options = CpaOptions::Recommended(d.num_items(), d.num_labels);
  CpaAggregator cpa(options);
  const auto result = RunExperiment(cpa, d);
  CPA_CHECK(result.ok()) << result.status().ToString();
  const CpaModel& model = *cpa.model();
  const std::vector<double> reliability =
      sweep::ComputeWorkerReliability(model, AnswerView(d.answers), SweepScheduler());

  // --- Audit report: the least reliable workers.
  std::vector<WorkerId> order;
  for (WorkerId u = 0; u < d.num_workers(); ++u) {
    if (!d.answers.AnswersOfWorker(u).empty()) order.push_back(u);
  }
  std::sort(order.begin(), order.end(),
            [&](WorkerId a, WorkerId b) { return reliability[a] < reliability[b]; });

  TablePrinter table({"Worker", "Reliability", "Community", "#Answers", "Injected?"});
  const std::size_t to_show = std::min<std::size_t>(15, order.size());
  for (std::size_t k = 0; k < to_show; ++k) {
    const WorkerId u = order[k];
    table.AddRow({StrFormat("#%u", u), StrFormat("%.3f", reliability[u]),
                  StrFormat("%zu", model.WorkerCommunity(u)),
                  StrFormat("%zu", d.answers.AnswersOfWorker(u).size()),
                  u >= original_workers ? "YES" : "no"});
  }
  std::printf("15 least reliable workers according to the CPA posterior:\n");
  table.Print();

  // --- How good is the audit? Precision of "flag the bottom-k".
  std::size_t injected_total = 0;
  for (WorkerId u = static_cast<WorkerId>(original_workers); u < d.num_workers(); ++u) {
    injected_total += !d.answers.AnswersOfWorker(u).empty();
  }
  std::size_t caught = 0;
  for (std::size_t k = 0; k < std::min(order.size(), injected_total); ++k) {
    caught += (order[k] >= original_workers);
  }
  std::printf("\naudit quality: flagging the bottom-%zu workers catches %zu of "
              "%zu injected spammers (%.0f%%)\n",
              injected_total, caught, injected_total,
              injected_total > 0 ? 100.0 * caught / injected_total : 0.0);
  std::printf("consensus quality despite the spam: precision %.3f, recall %.3f\n",
              result.value().metrics.precision, result.value().metrics.recall);
  return 0;
}
