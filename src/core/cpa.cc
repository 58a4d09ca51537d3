#include "core/cpa.h"

#include <algorithm>
#include <utility>

#include "util/stopwatch.h"

namespace cpa {

std::string_view CpaVariantName(CpaVariant variant) {
  switch (variant) {
    case CpaVariant::kFull:
      return "CPA";
    case CpaVariant::kNoZ:
      return "CPA-NoZ";
    case CpaVariant::kNoL:
      return "CPA-NoL";
  }
  return "CPA";
}

Result<CpaSolution> SolveCpaOffline(const AnswerMatrix& answers,
                                    std::size_t num_labels, const CpaOptions& options,
                                    CpaVariant variant, Executor* pool) {
  CpaOptions solve_options = options;
  switch (variant) {
    case CpaVariant::kFull:
      break;
    case CpaVariant::kNoZ:
      solve_options.singleton_communities = true;
      break;
    case CpaVariant::kNoL:
      solve_options.singleton_clusters = true;
      break;
  }
  if (variant == CpaVariant::kNoZ) {
    // Singleton communities blow the confusion bank up to T·U·C entries;
    // shrink the cluster truncation to respect the parameter budget (the
    // ablation still runs, as it does in the paper).
    const std::size_t per_cluster =
        std::max<std::size_t>(1, answers.num_workers() * num_labels);
    solve_options.max_clusters = std::max<std::size_t>(
        8, std::min(solve_options.max_clusters,
                    solve_options.no_l_parameter_limit / per_cluster));
  }
  FitOptions fit;
  fit.pool = pool;
  CpaSolution solution;
  CPA_ASSIGN_OR_RETURN(
      solution.model,
      FitCpa(answers, num_labels, solve_options, fit, &solution.stats));
  const Stopwatch prediction_watch;
  CPA_ASSIGN_OR_RETURN(CpaPrediction prediction,
                       PredictLabels(solution.model, answers, pool));
  solution.stats.prediction_seconds = prediction_watch.ElapsedSeconds();
  solution.predictions = std::move(prediction.labels);
  solution.label_scores = std::move(prediction.scores);
  return solution;
}

CpaAggregator::CpaAggregator(CpaOptions options, CpaVariant variant, Executor* pool)
    : options_(options), variant_(variant), pool_(pool) {}

Result<AggregationResult> CpaAggregator::Aggregate(const AnswerMatrix& answers,
                                                   std::size_t num_labels) {
  CPA_ASSIGN_OR_RETURN(CpaSolution solution,
                       SolveCpaOffline(answers, num_labels, options_, variant_, pool_));
  model_ = std::move(solution.model);
  stats_ = solution.stats;
  fitted_ = true;
  AggregationResult result;
  result.predictions = std::move(solution.predictions);
  result.label_scores = std::move(solution.label_scores);
  result.stats = std::move(solution.stats);
  return result;
}

}  // namespace cpa
