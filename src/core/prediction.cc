#include "core/prediction.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "util/logging.h"
#include "util/special_functions.h"
#include "util/stopwatch.h"

namespace cpa {
namespace internal {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double SafeLog(double x) { return x > 0.0 ? std::log(x) : kNegInf; }

/// Fills the active prefix of `scratch` with the (cluster, normalised
/// log-weight) pairs surviving the prune threshold.
void NormalizeActive(std::span<const double> cluster_log_weights,
                     PredictionScratch& scratch) {
  const double log_norm = LogSumExp(cluster_log_weights);
  scratch.active_count = 0;
  for (std::size_t t = 0; t < cluster_log_weights.size(); ++t) {
    const double log_weight = cluster_log_weights[t] - log_norm;
    if (std::exp(log_weight) >= kClusterPrune) {
      scratch.active_ids[scratch.active_count] = t;
      scratch.active_log_weights[scratch.active_count] = log_weight;
      ++scratch.active_count;
    }
  }
}

/// log Σ_t exp(acc_t + log_size_prior_t(n)) + ln(n!), over the active
/// prefix of `scratch` (terms buffer reused across calls).
double SetScore(const PredictionTables& tables, PredictionScratch& scratch,
                std::span<const double> acc, std::size_t n) {
  if (n >= tables.log_size_prior.cols()) return kNegInf;
  double best = kNegInf;
  for (std::size_t j = 0; j < scratch.active_count; ++j) {
    scratch.terms[j] = acc[j] + tables.log_size_prior(scratch.active_ids[j], n);
    best = std::max(best, scratch.terms[j]);
  }
  if (!std::isfinite(best)) return kNegInf;
  double sum = 0.0;
  for (std::size_t j = 0; j < scratch.active_count; ++j) {
    sum += std::exp(scratch.terms[j] - best);
  }
  return best + std::log(sum) + LogGamma(static_cast<double>(n) + 1.0);
}

}  // namespace

PredictionScratch::PredictionScratch(ScratchArena& arena, std::size_t num_clusters,
                                     std::size_t num_communities) {
  log_weights = arena.AllocZeroed<double>(num_clusters);
  weights = arena.AllocZeroed<double>(num_clusters);
  active_log_weights = arena.AllocZeroed<double>(num_clusters);
  acc = arena.AllocZeroed<double>(num_clusters);
  trial = arena.AllocZeroed<double>(num_clusters);
  terms = arena.AllocZeroed<double>(num_clusters);
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

  tables.log_psi_mean.assign(T, Matrix(M, C));
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t m = 0; m < M; ++m) {
      const auto lambda_row = model.lambda[t].Row(m);
      const double total = Sum(lambda_row);
      auto out = tables.log_psi_mean[t].Row(m);
      const double log_total = SafeLog(total);
      for (std::size_t c = 0; c < C; ++c) {
        out[c] = SafeLog(lambda_row[c]) - log_total;
      }
    }
  }

  tables.log_phi_mean.Reset(T, C);
  tables.top_labels.resize(T);
  std::vector<LabelId> order(C);
  for (std::size_t t = 0; t < T; ++t) {
    const auto zeta_row = model.zeta.Row(t);
    const double total = Sum(zeta_row);
    const double log_total = SafeLog(total);
    for (std::size_t c = 0; c < C; ++c) {
      tables.log_phi_mean(t, c) = SafeLog(zeta_row[c]) - log_total;
    }
    std::iota(order.begin(), order.end(), 0u);
    const std::size_t top_k =
        std::min<std::size_t>(model.options().prediction_candidates_per_cluster, C);
    std::partial_sort(order.begin(), order.begin() + top_k, order.end(),
                      [&](LabelId a, LabelId b) { return zeta_row[a] > zeta_row[b]; });
    tables.top_labels[t].assign(order.begin(), order.begin() + top_k);
  }

  tables.log_size_prior.Reset(model.size_prior.rows(), model.size_prior.cols());
  for (std::size_t t = 0; t < model.size_prior.rows(); ++t) {
    for (std::size_t n = 0; n < model.size_prior.cols(); ++n) {
      tables.log_size_prior(t, n) = SafeLog(model.size_prior(t, n));
    }
  }
  return tables;
}

void ItemClusterLogWeights(const CpaModel& model, const PredictionTables& tables,
                           const AnswerMatrix& answers, ItemId item,
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
  for (std::size_t index : answers.AnswersOfItem(item)) {
    const Answer& a = answers.answer(index);
    const auto kappa_row = model.kappa.Row(a.worker);
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
      // ln Σ_m κ_um Π_c ψ̂_tmc  (log-sum-exp over communities).
      double term;
      if (live == 1) {
        // One live community: the log-sum-exp of a row with one finite
        // entry x is x + ln(exp(0)) = x, so the term is that entry. (A NaN
        // entry is skipped by the row max, which leaves −inf.)
        const auto psi_row = tables.log_psi_mean[t].Row(scratch.live_communities[0]);
        term = scratch.live_log_kappa[0];
        for (LabelId c : a.labels) term += psi_row[c];
        if (std::isnan(term)) term = kNegInf;
      } else {
        for (std::size_t j = 0; j < live; ++j) {
          const std::size_t m = scratch.live_communities[j];
          const auto psi_row = tables.log_psi_mean[t].Row(m);
          double loglik = scratch.live_log_kappa[j];
          for (LabelId c : a.labels) loglik += psi_row[c];
          member_terms[m] = loglik;
        }
        term = LogSumExp(member_terms);
      }
      log_weights[t] += term;
    }
  }
}

void CollectCandidates(const PredictionTables& tables, const AnswerMatrix& answers,
                       ItemId item, std::span<const double> cluster_log_weights,
                       PredictionScratch& scratch) {
  auto& candidates = scratch.candidates;
  candidates.clear();
  for (std::size_t index : answers.AnswersOfItem(item)) {
    const Answer& a = answers.answer(index);
    candidates.insert(candidates.end(), a.labels.begin(), a.labels.end());
  }
  // Top labels of the three most likely clusters: the co-occurrence
  // completion channel (R3).
  auto& order = scratch.cluster_order;
  order.resize(cluster_log_weights.size());
  std::iota(order.begin(), order.end(), 0u);
  const std::size_t top_clusters = std::min<std::size_t>(3, order.size());
  std::partial_sort(order.begin(), order.begin() + top_clusters, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return cluster_log_weights[a] > cluster_log_weights[b];
                    });
  for (std::size_t j = 0; j < top_clusters; ++j) {
    if (!std::isfinite(cluster_log_weights[order[j]])) continue;
    const auto& top = tables.top_labels[order[j]];
    candidates.insert(candidates.end(), top.begin(), top.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
}

LabelSet GreedyInstantiate(const PredictionTables& tables,
                           std::span<const double> cluster_log_weights,
                           std::span<const LabelId> candidates,
                           PredictionScratch& scratch) {
  NormalizeActive(cluster_log_weights, scratch);
  if (scratch.active_count == 0) return LabelSet();

  // acc_j = log_weight_j + Σ_{c∈y} log φ̂_{t_j, c}.
  auto acc = scratch.acc.first(scratch.active_count);
  std::copy_n(scratch.active_log_weights.begin(), scratch.active_count, acc.begin());
  LabelSet selected;
  scratch.used.assign(candidates.size(), 0);
  double current = SetScore(tables, scratch, acc, 0);

  auto trial = scratch.trial.first(scratch.active_count);
  for (;;) {
    double best_score = current;
    std::size_t best_index = candidates.size();
    const std::size_t next_size = selected.size() + 1;
    if (next_size >= tables.log_size_prior.cols()) break;
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (scratch.used[j]) continue;
      for (std::size_t k = 0; k < scratch.active_count; ++k) {
        trial[k] =
            acc[k] + tables.log_phi_mean(scratch.active_ids[k], candidates[j]);
      }
      const double score = SetScore(tables, scratch, trial, next_size);
      if (score > best_score + 1e-12) {
        best_score = score;
        best_index = j;
      }
    }
    if (best_index == candidates.size()) break;
    scratch.used[best_index] = 1;
    selected.Add(candidates[best_index]);
    for (std::size_t k = 0; k < scratch.active_count; ++k) {
      acc[k] += tables.log_phi_mean(scratch.active_ids[k], candidates[best_index]);
    }
    current = best_score;
  }
  return selected;
}

LabelSet ExhaustiveInstantiate(const PredictionTables& tables,
                               std::span<const double> cluster_log_weights,
                               std::span<const LabelId> candidates,
                               std::size_t max_size, PredictionScratch& scratch) {
  NormalizeActive(cluster_log_weights, scratch);
  if (scratch.active_count == 0) return LabelSet();
  max_size = std::min(max_size, tables.log_size_prior.cols() - 1);

  auto acc = scratch.acc.first(scratch.active_count);
  std::copy_n(scratch.active_log_weights.begin(), scratch.active_count, acc.begin());
  auto& current = scratch.subset;
  auto& best_set = scratch.best_subset;
  current.clear();
  best_set.clear();
  double best_score = SetScore(tables, scratch, acc, 0);

  // Depth-first enumeration of subsets in index order; `acc` carries the
  // per-cluster partial log-products.
  const std::function<void(std::size_t)> recurse = [&](std::size_t start) {
    if (current.size() >= max_size) return;
    for (std::size_t j = start; j < candidates.size(); ++j) {
      for (std::size_t k = 0; k < scratch.active_count; ++k) {
        acc[k] += tables.log_phi_mean(scratch.active_ids[k], candidates[j]);
      }
      current.push_back(candidates[j]);
      const double score = SetScore(tables, scratch, acc, current.size());
      if (score > best_score + 1e-12) {
        best_score = score;
        best_set = current;
      }
      recurse(j + 1);
      current.pop_back();
      for (std::size_t k = 0; k < scratch.active_count; ++k) {
        acc[k] -= tables.log_phi_mean(scratch.active_ids[k], candidates[j]);
      }
    }
  };
  recurse(0);
  return LabelSet::FromUnsorted(std::vector<LabelId>(best_set));
}

namespace {

/// Predicts one item into `prediction` using shard-owned scratch. The
/// straight-line port of the pre-arena per-item body; every buffer write
/// fully overwrites its prefix, so shard boundaries cannot leak state.
void PredictOneItem(const CpaModel& model, const PredictionTables& tables,
                    const AnswerMatrix& answers,
                    const sweep::ClusterActivity& activity, std::size_t i,
                    PredictionScratch& scratch, CpaPrediction& prediction) {
  const ItemId item = static_cast<ItemId>(i);
  if (answers.AnswersOfItem(item).empty()) return;  // stays empty
  ItemClusterLogWeights(model, tables, answers, item, activity, scratch);
  const std::span<const double> log_weights = scratch.log_weights;

  // Marginal scores from the mixed Bernoulli profile. Only the item's
  // active clusters hold finite log-weights, so the softmax and the score
  // accumulation both run over the active ids (ascending — the same
  // accumulation order as a T-wide scan).
  const std::span<const std::size_t> active(scratch.active_ids.data(),
                                            scratch.active_count);
  SoftmaxActive(log_weights, active, scratch.weights);
  auto score_row = prediction.scores.Row(i);
  for (std::size_t k = 0; k < active.size(); ++k) {
    const double weight = scratch.weights[k];
    if (weight <= 0.0) continue;
    const auto profile_row = model.bernoulli_profile.Row(active[k]);
    for (std::size_t c = 0; c < model.num_labels(); ++c) {
      score_row[c] += weight * profile_row[c];
    }
  }

  if (model.options().prediction_mode == PredictionMode::kBernoulliProfile) {
    prediction.labels[i] = LabelSet::FromIndicator(score_row, 0.5);
    return;
  }
  if (model.options().exhaustive_prediction) {
    // The paper's 2^C enumeration: over the full label universe when
    // small, bounded by the size-prior support.
    if (model.num_labels() <= 25) {
      scratch.candidates.resize(model.num_labels());
      std::iota(scratch.candidates.begin(), scratch.candidates.end(), 0u);
    } else {
      CollectCandidates(tables, answers, item, log_weights, scratch);
    }
    prediction.labels[i] =
        ExhaustiveInstantiate(tables, log_weights, scratch.candidates,
                              tables.log_size_prior.cols() - 1, scratch);
    return;
  }
  CollectCandidates(tables, answers, item, log_weights, scratch);
  prediction.labels[i] =
      GreedyInstantiate(tables, log_weights, scratch.candidates, scratch);
}

}  // namespace
}  // namespace internal

Result<CpaPrediction> PredictLabels(const CpaModel& model, const AnswerMatrix& answers,
                                    const SweepScheduler& scheduler) {
  if (answers.num_items() != model.num_items() ||
      answers.num_workers() != model.num_workers()) {
    return Status::InvalidArgument("answer matrix does not match model dimensions");
  }
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
          internal::PredictOneItem(model, tables, answers, activity, i, scratch,
                                   prediction);
        }
      },
      /*min_shard=*/4);
  return prediction;
}

Result<CpaPrediction> PredictLabels(const CpaModel& model, const AnswerMatrix& answers,
                                    Executor* pool) {
  const SweepScheduler scheduler(pool);
  return PredictLabels(model, answers, scheduler);
}

}  // namespace cpa
