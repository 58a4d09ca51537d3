#include "baselines/dawid_skene.h"

#include <algorithm>
#include <cmath>

#include "baselines/vote_stats.h"
#include "util/logging.h"

namespace cpa {
namespace {

double Sigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

double ClampProb(double p) { return std::clamp(p, 1e-6, 1.0 - 1e-6); }

/// EM state for a single binary label problem.
struct BinaryEmState {
  std::vector<double> q;           // item posterior P(label applies)
  std::vector<double> sensitivity; // per worker
  std::vector<double> specificity; // per worker
  std::vector<double> weight;      // per worker vote weight (cost phase)
  double prior = 0.5;
};

}  // namespace

Result<AggregationResult> DawidSkene::Aggregate(const AnswerMatrix& answers,
                                                std::size_t num_labels) {
  if (num_labels == 0) return Status::InvalidArgument("num_labels must be positive");
  const std::size_t num_items = answers.num_items();
  const std::size_t num_workers = answers.num_workers();
  const VoteStats votes = CountVotes(answers, num_labels);

  AggregationResult result;
  result.predictions.resize(num_items);
  result.label_scores.Reset(num_items, num_labels);

  BinaryEmState state;
  std::vector<double> ll1(num_items);
  std::vector<double> ll0(num_items);
  std::vector<double> pos1(num_workers);  // sum q over answered items w/ vote 1
  std::vector<double> pos_total(num_workers);
  std::vector<double> neg0(num_workers);  // sum (1-q) over items w/ vote 0
  std::vector<double> neg_total(num_workers);

  std::size_t total_iterations = 0;
  for (LabelId c = 0; c < num_labels; ++c) {
    // --- Initialisation: smoothed vote ratios.
    state.q.resize(num_items);
    for (ItemId i = 0; i < num_items; ++i) {
      state.q[i] = ClampProb((votes.votes(i, c) + 0.5) / (votes.answered[i] + 1.0));
    }
    state.sensitivity.assign(num_workers, 0.7);
    state.specificity.assign(num_workers, 0.7);
    state.weight.assign(num_workers, 1.0);

    const std::size_t phases = options_.use_mislabeling_cost ? 2 : 1;
    for (std::size_t phase = 0; phase < phases; ++phase) {
      double change = 1.0;
      for (std::size_t iter = 0;
           iter < options_.max_iterations && change > options_.tolerance; ++iter) {
        ++total_iterations;
        // --- M-step: worker confusion from soft counts.
        std::fill(pos1.begin(), pos1.end(), 0.0);
        std::fill(pos_total.begin(), pos_total.end(), 0.0);
        std::fill(neg0.begin(), neg0.end(), 0.0);
        std::fill(neg_total.begin(), neg_total.end(), 0.0);
        double prior_sum = 0.0;
        double prior_count = 0.0;
        for (const Answer& a : answers.answers()) {
          const bool vote = a.labels.Contains(c);
          const double qi = state.q[a.item];
          pos_total[a.worker] += qi;
          neg_total[a.worker] += 1.0 - qi;
          if (vote) {
            pos1[a.worker] += qi;
          } else {
            neg0[a.worker] += 1.0 - qi;
          }
        }
        for (ItemId i = 0; i < num_items; ++i) {
          if (votes.answered[i] > 0.0) {
            prior_sum += state.q[i];
            prior_count += 1.0;
          }
        }
        const double s = options_.smoothing;
        for (WorkerId u = 0; u < num_workers; ++u) {
          state.sensitivity[u] = ClampProb((pos1[u] + s) / (pos_total[u] + 2.0 * s));
          state.specificity[u] = ClampProb((neg0[u] + s) / (neg_total[u] + 2.0 * s));
        }
        state.prior =
            prior_count > 0.0 ? ClampProb(prior_sum / prior_count) : 0.5;

        // --- E-step: item posteriors from weighted log-likelihood ratios.
        std::fill(ll1.begin(), ll1.end(), 0.0);
        std::fill(ll0.begin(), ll0.end(), 0.0);
        for (const Answer& a : answers.answers()) {
          const bool vote = a.labels.Contains(c);
          const double sens = state.sensitivity[a.worker];
          const double spec = state.specificity[a.worker];
          const double w = state.weight[a.worker];
          if (vote) {
            ll1[a.item] += w * std::log(sens);
            ll0[a.item] += w * std::log(1.0 - spec);
          } else {
            ll1[a.item] += w * std::log(1.0 - sens);
            ll0[a.item] += w * std::log(spec);
          }
        }
        change = 0.0;
        const double prior_logodds =
            std::log(state.prior) - std::log(1.0 - state.prior);
        for (ItemId i = 0; i < num_items; ++i) {
          if (votes.answered[i] <= 0.0) continue;
          const double updated = Sigmoid(prior_logodds + ll1[i] - ll0[i]);
          change = std::max(change, std::abs(updated - state.q[i]));
          state.q[i] = updated;
        }
      }
      if (phase + 1 < phases) {
        // Mislabeling-cost refinement: weight workers by Youden's J
        // (sensitivity + specificity - 1, floored at a small epsilon so
        // anti-correlated workers do not flip votes). Spammers get ~0.
        for (WorkerId u = 0; u < num_workers; ++u) {
          state.weight[u] =
              std::max(0.05, state.sensitivity[u] + state.specificity[u] - 1.0);
        }
      }
    }

    // --- Decision.
    for (ItemId i = 0; i < num_items; ++i) {
      const double score = votes.answered[i] > 0.0 ? state.q[i] : 0.0;
      result.label_scores(i, c) = score;
      if (score > options_.threshold) result.predictions[i].Add(c);
    }
  }
  result.stats.iterations = total_iterations;
  return result;
}

}  // namespace cpa
