#include "core/prediction.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/special_functions.h"

namespace cpa {
namespace internal {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double SafeLog(double x) { return x > 0.0 ? std::log(x) : kNegInf; }

/// The answers prediction reads for an item, in order: every answer of a
/// matrix, or the answers a stream learner has seen, as flat indices into
/// the view of its stream matrix. `ForEach` calls `fn(worker, labels)`.
struct MatrixAnswers {
  const AnswerMatrix& answers;

  bool Empty(ItemId item) const { return answers.AnswersOfItem(item).empty(); }
  template <typename Fn>
  void ForEach(ItemId item, Fn&& fn) const {
    for (std::size_t index : answers.AnswersOfItem(item)) {
      const Answer& a = answers.answer(index);
      fn(a.worker, a.labels);
    }
  }
};

struct SeenAnswers {
  const AnswerView& view;
  std::span<const std::vector<std::uint32_t>> by_item;

  bool Empty(ItemId item) const { return by_item[item].empty(); }
  template <typename Fn>
  void ForEach(ItemId item, Fn&& fn) const {
    for (std::uint32_t index : by_item[item]) fn(view.worker(index), view.labels(index));
  }
};

template <typename Answers>
void ItemClusterLogWeightsOf(const CpaModel& model, const PredictionTables& tables,
                             const Answers& answers, ItemId item,
                             const sweep::ClusterActivity& activity,
                             PredictionScratch& scratch) {
  const std::size_t M = model.num_communities();
  auto log_weights = scratch.log_weights;
  // Clusters holding no posterior mass for this item cannot win the
  // softmax; their (answers × M) likelihood work is skipped.
  std::fill(log_weights.begin(), log_weights.end(), kNegInf);
  scratch.active_count = 0;
  activity.ForEach(item, [&](std::size_t t, double weight) {
    log_weights[t] = SafeLog(weight);
    scratch.active_ids[scratch.active_count++] = t;
  });
  auto member_terms = scratch.member_terms;
  answers.ForEach(item, [&](WorkerId worker, const auto& labels) {
    const auto kappa_row = model.kappa.Row(worker);
    // The worker's live communities (κ_um > 0) and their ln κ_um, once per
    // answer rather than once per (cluster, community).
    std::size_t live = 0;
    for (std::size_t m = 0; m < M; ++m) {
      if (kappa_row[m] <= 0.0) continue;
      scratch.live_communities[live] = m;
      scratch.live_log_kappa[live] = std::log(kappa_row[m]);
      ++live;
    }
    // Dead communities are −inf holes of the M-wide log-sum-exp row; only
    // the live slots change from cluster to cluster.
    if (live != 1) std::fill(member_terms.begin(), member_terms.end(), kNegInf);
    for (std::size_t k = 0; k < scratch.active_count; ++k) {
      const std::size_t t = scratch.active_ids[k];
      const auto psi_row = tables.log_psi_mean.Row(t);
      // ln Σ_m κ_um Π_c ψ̂_tmc  (log-sum-exp over communities).
      double term;
      if (live == 1) {
        // One live community: the log-sum-exp of a row with one finite
        // entry x is x + ln(exp(0)) = x, so the term is that entry. (A NaN
        // entry is skipped by the row max, which leaves −inf.)
        const std::size_t m = scratch.live_communities[0];
        term = scratch.live_log_kappa[0];
        for (LabelId c : labels) term += psi_row[c * M + m];
        if (std::isnan(term)) term = kNegInf;
      } else {
        for (std::size_t j = 0; j < live; ++j) {
          const std::size_t m = scratch.live_communities[j];
          double loglik = scratch.live_log_kappa[j];
          for (LabelId c : labels) loglik += psi_row[c * M + m];
          member_terms[m] = loglik;
        }
        term = LogSumExp(member_terms);
      }
      log_weights[t] += term;
    }
  });
}

template <typename Answers>
void PredictOneItemOf(const CpaModel& model, const PredictionTables& tables,
                      const Answers& answers, const sweep::ClusterActivity& activity,
                      ItemId item, PredictionScratch& scratch,
                      CpaPrediction& prediction) {
  if (answers.Empty(item)) return;  // stays empty
  ItemClusterLogWeightsOf(model, tables, answers, item, activity, scratch);
  const std::span<const double> log_weights = scratch.log_weights;

  // Marginal scores from the mixed Bernoulli profile. Only the item's
  // active clusters hold finite log-weights, so the softmax and the score
  // accumulation both run over the active ids (ascending — the same
  // accumulation order as a T-wide scan).
  const std::span<const std::size_t> active(scratch.active_ids.data(),
                                            scratch.active_count);
  SoftmaxActive(log_weights, active, scratch.weights);
  auto score_row = prediction.scores.Row(item);
  for (std::size_t k = 0; k < active.size(); ++k) {
    const double weight = scratch.weights[k];
    if (weight <= 0.0) continue;
    const auto profile_row = model.bernoulli_profile.Row(active[k]);
    for (std::size_t c = 0; c < model.num_labels(); ++c) {
      score_row[c] += weight * profile_row[c];
    }
  }

  prediction.labels[item] = LabelSet::FromIndicator(score_row, 0.5);
}

}  // namespace

PredictionScratch::PredictionScratch(ScratchArena& arena, std::size_t num_clusters,
                                     std::size_t num_communities) {
  log_weights = arena.AllocZeroed<double>(num_clusters);
  weights = arena.AllocZeroed<double>(num_clusters);
  member_terms = arena.AllocZeroed<double>(num_communities);
  live_log_kappa = arena.AllocZeroed<double>(num_communities);
  active_ids = arena.AllocZeroed<std::size_t>(num_clusters);
  live_communities = arena.AllocZeroed<std::size_t>(num_communities);
}

PredictionTables BuildPredictionTables(const CpaModel& model) {
  PredictionTables tables;
  const std::size_t T = model.num_clusters();
  const std::size_t M = model.num_communities();
  const std::size_t C = model.num_labels();
  tables.log_psi_mean.Reset(T, C * M);
  std::vector<double> lambda_row(C);
  for (std::size_t t = 0; t < T; ++t) {
    const auto out = tables.log_psi_mean.Row(t);
    for (std::size_t m = 0; m < M; ++m) {
      model.CopyLambdaRow(t, m, lambda_row);
      const double log_total = SafeLog(Sum(lambda_row));
      for (std::size_t c = 0; c < C; ++c) {
        out[c * M + m] = SafeLog(lambda_row[c]) - log_total;
      }
    }
  }
  return tables;
}

void ItemClusterLogWeights(const CpaModel& model, const PredictionTables& tables,
                           const AnswerMatrix& answers, ItemId item,
                           const sweep::ClusterActivity& activity,
                           PredictionScratch& scratch) {
  ItemClusterLogWeightsOf(model, tables, MatrixAnswers{answers}, item, activity, scratch);
}

void PredictOneItem(const CpaModel& model, const PredictionTables& tables,
                    const AnswerMatrix& answers,
                    const sweep::ClusterActivity& activity, ItemId item,
                    PredictionScratch& scratch, CpaPrediction& prediction) {
  PredictOneItemOf(model, tables, MatrixAnswers{answers}, activity, item, scratch,
                   prediction);
}

}  // namespace internal

namespace {

template <typename Answers>
CpaPrediction PredictItems(const CpaModel& model, const Answers& answers,
                           const SweepScheduler& scheduler) {
  const internal::PredictionTables tables = internal::BuildPredictionTables(model);
  const std::size_t num_items = model.num_items();

  // Each item's live clusters: ϕ read at the prediction prune threshold.
  const sweep::ClusterActivity activity{&model.phi, internal::kClusterPrune};

  CpaPrediction prediction;
  prediction.labels.resize(num_items);
  prediction.scores.Reset(num_items, model.num_labels());

  scheduler.ParallelMap(
      num_items,
      [&](ScratchArena& arena, std::size_t begin, std::size_t end) {
        internal::PredictionScratch scratch(arena, model.num_clusters(),
                                            model.num_communities());
        for (std::size_t i = begin; i < end; ++i) {
          internal::PredictOneItemOf(model, tables, answers, activity,
                                     static_cast<ItemId>(i), scratch, prediction);
        }
      },
      /*min_shard=*/4);
  return prediction;
}

}  // namespace

Result<CpaPrediction> PredictLabels(const CpaModel& model, const AnswerMatrix& answers,
                                    const SweepScheduler& scheduler) {
  if (answers.num_items() != model.num_items() ||
      answers.num_workers() != model.num_workers()) {
    return Status::InvalidArgument("answer matrix does not match model dimensions");
  }
  return PredictItems(model, internal::MatrixAnswers{answers}, scheduler);
}

Result<CpaPrediction> PredictLabels(
    const CpaModel& model, const AnswerView& view,
    std::span<const std::vector<std::uint32_t>> answers_by_item,
    const SweepScheduler& scheduler) {
  if (view.num_items() != model.num_items() ||
      view.num_workers() != model.num_workers() ||
      answers_by_item.size() != model.num_items()) {
    return Status::InvalidArgument("answer view does not match model dimensions");
  }
  for (const auto& seen : answers_by_item) {
    for (std::uint32_t index : seen) {
      if (index >= view.num_answers()) {
        return Status::InvalidArgument("seen answer index is outside the answer view");
      }
    }
  }
  return PredictItems(model, internal::SeenAnswers{view, answers_by_item}, scheduler);
}

Result<CpaPrediction> PredictLabels(const CpaModel& model, const AnswerMatrix& answers,
                                    Executor* pool) {
  const SweepScheduler scheduler(pool);
  return PredictLabels(model, answers, scheduler);
}

}  // namespace cpa
