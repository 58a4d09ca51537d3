#include "baselines/cbcc.h"

#include <algorithm>
#include <cmath>

#include "baselines/vote_stats.h"
#include "util/matrix.h"
#include "util/special_functions.h"

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

struct BetaLogs {
  double log_p;
  double log_not_p;
};

BetaLogs ExpectedLogs(double a, double b) {
  const double d = Digamma(a + b);
  return BetaLogs{Digamma(a) - d, Digamma(b) - d};
}

}  // namespace

Result<AggregationResult> Cbcc::Aggregate(const AnswerMatrix& answers,
                                          std::size_t num_labels) {
  if (num_labels == 0) return Status::InvalidArgument("num_labels must be positive");
  if (options_.num_communities == 0) {
    return Status::InvalidArgument("num_communities must be positive");
  }
  const std::size_t num_items = answers.num_items();
  const std::size_t num_workers = answers.num_workers();
  const std::size_t M = options_.num_communities;
  const VoteStats votes = CountVotes(answers, num_labels);

  // --- Deterministic initial communities: rank workers by their mean
  // agreement with the majority answer across all labels they touched.
  std::vector<double> agreement(num_workers, 0.0);
  std::vector<double> answered(num_workers, 0.0);
  for (const Answer& a : answers.answers()) {
    // Agreement of this answer with the per-item vote majority, measured as
    // the mean vote ratio of the labels the worker asserted.
    double score = 0.0;
    for (LabelId c : a.labels) score += votes.Ratio(a.item, c);
    agreement[a.worker] += a.labels.empty() ? 0.0 : score / a.labels.size();
    answered[a.worker] += 1.0;
  }
  std::vector<WorkerId> order;
  for (WorkerId u = 0; u < num_workers; ++u) {
    if (answered[u] > 0.0) {
      agreement[u] /= answered[u];
      order.push_back(u);
    }
  }
  std::sort(order.begin(), order.end(), [&](WorkerId a, WorkerId b) {
    return agreement[a] < agreement[b];
  });
  std::vector<std::size_t> initial_community(num_workers, 0);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    initial_community[order[rank]] = rank * M / std::max<std::size_t>(1, order.size());
  }

  AggregationResult result;
  result.predictions.resize(num_items);
  result.label_scores.Reset(num_items, num_labels);

  std::vector<double> q(num_items);
  Matrix rho;  // worker x community responsibilities
  std::vector<double> ll1(num_items);
  std::vector<double> ll0(num_items);
  std::vector<double> sens_a(M);
  std::vector<double> sens_b(M);
  std::vector<double> spec_a(M);
  std::vector<double> spec_b(M);
  std::vector<BetaLogs> sens_logs(M);
  std::vector<BetaLogs> spec_logs(M);
  std::vector<double> omega(M);
  Matrix rho_ll;  // accumulates per-worker per-community log-likelihoods

  std::size_t total_iterations = 0;
  for (LabelId c = 0; c < num_labels; ++c) {
    for (ItemId i = 0; i < num_items; ++i) {
      q[i] = std::clamp((votes.votes(i, c) + 0.5) / (votes.answered[i] + 1.0), 1e-6,
                        1.0 - 1e-6);
    }
    rho.Reset(num_workers, M, 0.0);
    for (WorkerId u = 0; u < num_workers; ++u) {
      // Soft-ish deterministic start: 0.7 on the agreement quantile.
      for (std::size_t m = 0; m < M; ++m) {
        rho(u, m) =
            m == initial_community[u] ? 0.7 : 0.3 / std::max<std::size_t>(1, M - 1);
      }
    }
    double class_a = options_.prior_class;
    double class_b = options_.prior_class;

    double change = 1.0;
    for (std::size_t iter = 0;
         iter < options_.max_iterations && change > options_.tolerance; ++iter) {
      ++total_iterations;
      // --- Community Beta posteriors from rho-weighted soft counts.
      std::fill(sens_a.begin(), sens_a.end(), options_.prior_correct);
      std::fill(sens_b.begin(), sens_b.end(), options_.prior_incorrect);
      std::fill(spec_a.begin(), spec_a.end(), options_.prior_correct);
      std::fill(spec_b.begin(), spec_b.end(), options_.prior_incorrect);
      std::fill(omega.begin(), omega.end(), options_.prior_community);
      class_a = options_.prior_class;
      class_b = options_.prior_class;
      for (const Answer& a : answers.answers()) {
        const bool vote = a.labels.Contains(c);
        const double qi = q[a.item];
        for (std::size_t m = 0; m < M; ++m) {
          const double r = rho(a.worker, m);
          if (vote) {
            sens_a[m] += r * qi;
            spec_b[m] += r * (1.0 - qi);
          } else {
            sens_b[m] += r * qi;
            spec_a[m] += r * (1.0 - qi);
          }
        }
      }
      for (WorkerId u = 0; u < num_workers; ++u) {
        if (answered[u] > 0.0) {
          for (std::size_t m = 0; m < M; ++m) omega[m] += rho(u, m);
        }
      }
      for (ItemId i = 0; i < num_items; ++i) {
        if (votes.answered[i] > 0.0) {
          class_a += q[i];
          class_b += 1.0 - q[i];
        }
      }
      for (std::size_t m = 0; m < M; ++m) {
        sens_logs[m] = ExpectedLogs(sens_a[m], sens_b[m]);
        spec_logs[m] = ExpectedLogs(spec_a[m], spec_b[m]);
      }
      const BetaLogs class_logs = ExpectedLogs(class_a, class_b);
      // E[ln omega_m] under the Dirichlet posterior.
      double omega_sum = 0.0;
      for (double o : omega) omega_sum += o;
      const double digamma_omega_sum = Digamma(omega_sum);

      // --- Worker responsibilities.
      rho_ll.Reset(num_workers, M, 0.0);
      for (const Answer& a : answers.answers()) {
        const bool vote = a.labels.Contains(c);
        const double qi = q[a.item];
        for (std::size_t m = 0; m < M; ++m) {
          double ll = 0.0;
          if (vote) {
            ll += qi * sens_logs[m].log_p + (1.0 - qi) * spec_logs[m].log_not_p;
          } else {
            ll += qi * sens_logs[m].log_not_p + (1.0 - qi) * spec_logs[m].log_p;
          }
          rho_ll(a.worker, m) += ll;
        }
      }
      for (WorkerId u = 0; u < num_workers; ++u) {
        if (answered[u] <= 0.0) continue;
        auto row = rho_ll.Row(u);
        for (std::size_t m = 0; m < M; ++m) {
          row[m] += Digamma(omega[m]) - digamma_omega_sum;
        }
        // The shared dispatched softmax (core/sweep/simd.h) — baselines get
        // the scalar/AVX2 selection for free, no per-caller copy.
        SoftmaxInPlace(row);
        for (std::size_t m = 0; m < M; ++m) rho(u, m) = row[m];
      }

      // --- Item posteriors under community-mixture expected logs.
      std::fill(ll1.begin(), ll1.end(), 0.0);
      std::fill(ll0.begin(), ll0.end(), 0.0);
      for (const Answer& a : answers.answers()) {
        const bool vote = a.labels.Contains(c);
        double v1 = 0.0;
        double v0 = 0.0;
        for (std::size_t m = 0; m < M; ++m) {
          const double r = rho(a.worker, m);
          if (vote) {
            v1 += r * sens_logs[m].log_p;
            v0 += r * spec_logs[m].log_not_p;
          } else {
            v1 += r * sens_logs[m].log_not_p;
            v0 += r * spec_logs[m].log_p;
          }
        }
        ll1[a.item] += v1;
        ll0[a.item] += v0;
      }
      change = 0.0;
      for (ItemId i = 0; i < num_items; ++i) {
        if (votes.answered[i] <= 0.0) continue;
        const double updated =
            Sigmoid(class_logs.log_p - class_logs.log_not_p + ll1[i] - ll0[i]);
        change = std::max(change, std::abs(updated - q[i]));
        q[i] = updated;
      }
    }

    for (ItemId i = 0; i < num_items; ++i) {
      const double score = votes.answered[i] > 0.0 ? q[i] : 0.0;
      result.label_scores(i, c) = score;
      if (score > options_.threshold) result.predictions[i].Add(c);
    }
  }
  result.stats.iterations = total_iterations;
  return result;
}

}  // namespace cpa
