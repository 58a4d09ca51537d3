/// Quickstart: aggregate the paper's motivating example (Table 1) with
/// majority voting and with CPA.
///
///   $ ./quickstart
///
/// Five workers tag four pictures with subsets of {sky, plane, sun, water,
/// tree}; the aggregators must reconstruct the correct tag sets.

#include <cstdio>

#include "baselines/majority_vote.h"
#include "core/cpa.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "util/flags.h"

using namespace cpa;

int main(int argc, char** argv) {
  // No flags: refuse any, rather than ignore them.
  const auto flags = Flags::Parse(argc, argv);
  CPA_CHECK(flags.ok()) << flags.status().ToString();
  CPA_CHECK_OK(flags.value().CheckAllRead());
  // --- Build the answer matrix of Table 1 (labels are 0-based indices
  // into the label-name list below).
  const std::vector<std::string> label_names = {"sky", "plane", "sun", "water",
                                                "tree"};
  AnswerMatrix answers(/*num_items=*/4, /*num_workers=*/5);
  const auto add = [&](ItemId item, WorkerId worker, LabelSet labels) {
    CPA_CHECK_OK(answers.Add(item, worker, std::move(labels)));
  };
  // picture i1
  add(0, 0, {3, 4});
  add(0, 1, {3, 4});
  add(0, 2, {3});
  add(0, 3, {0});
  add(0, 4, {4});
  // picture i2
  add(1, 0, {1, 2});
  add(1, 1, {0, 3});
  add(1, 2, {3});
  add(1, 3, {1});
  add(1, 4, {2, 3});
  // picture i3
  add(2, 0, {0, 1});
  add(2, 1, {3});
  add(2, 2, {3});
  add(2, 3, {2});
  add(2, 4, {3, 4});
  // picture i4
  add(3, 0, {0, 1});
  add(3, 1, {1, 2});
  add(3, 2, {3});
  add(3, 3, {3});
  add(3, 4, {0, 1, 2});

  const std::vector<LabelSet> truth = {LabelSet{4}, LabelSet{2, 3}, LabelSet{3, 4},
                                       LabelSet{0, 1, 2}};

  const auto print_labels = [&](const LabelSet& set) {
    std::printf("{");
    bool first = true;
    for (LabelId c : set) {
      std::printf("%s%s", first ? "" : ",", label_names[c].c_str());
      first = false;
    }
    std::printf("}");
  };

  // --- Aggregate with majority voting (the paper's Table 1 column).
  MajorityVote mv;
  const auto mv_result = mv.Aggregate(answers, label_names.size());
  CPA_CHECK(mv_result.ok()) << mv_result.status().ToString();

  // --- Aggregate with CPA. For a 4-item toy example, small truncations.
  CpaOptions options;
  options.max_communities = 4;
  options.max_clusters = 4;
  CpaAggregator cpa(options);
  const auto cpa_result = cpa.Aggregate(answers, label_names.size());
  CPA_CHECK(cpa_result.ok()) << cpa_result.status().ToString();

  std::printf("picture  correct            majority           CPA\n");
  std::printf("------------------------------------------------------------\n");
  for (ItemId i = 0; i < 4; ++i) {
    std::printf("i%u       ", i + 1);
    print_labels(truth[i]);
    std::printf("\t   ");
    print_labels(mv_result.value().predictions[i]);
    std::printf("\t      ");
    print_labels(cpa_result.value().predictions[i]);
    std::printf("\n");
  }

  const SetMetrics mv_metrics = ComputeSetMetrics(mv_result.value().predictions, truth);
  const SetMetrics cpa_metrics =
      ComputeSetMetrics(cpa_result.value().predictions, truth);
  std::printf("\nmajority voting: precision %.2f, recall %.2f\n", mv_metrics.precision,
              mv_metrics.recall);
  std::printf("CPA:             precision %.2f, recall %.2f\n", cpa_metrics.precision,
              cpa_metrics.recall);
  std::printf(
      "\n(Four items and five workers are far too little data for a Bayesian "
      "nonparametric model — this example shows the API, not the accuracy "
      "gap. See examples/image_tagging.cpp for a realistic comparison.)\n");
  return 0;
}
