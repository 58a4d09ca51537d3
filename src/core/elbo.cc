#include "core/elbo.h"

#include <cmath>
#include <vector>

#include "util/special_functions.h"

namespace cpa {
namespace {

constexpr double kSkipMass = 1e-8;

double CategoricalEntropy(std::span<const double> p) {
  double entropy = 0.0;
  for (double v : p) {
    if (v > 1e-300) entropy -= v * std::log(v);
  }
  return entropy;
}

/// ln B(a·1_C) for a symmetric Dirichlet.
double LogSymmetricBeta(double a, std::size_t C) {
  return static_cast<double>(C) * LogGamma(a) - LogGamma(a * static_cast<double>(C));
}

/// E[ln p(v)] for v ~ Beta(1, c) evaluated under q(v) = Beta(a, b):
/// ln c + (c − 1) E[ln(1 − v)].
double StickPriorExpectation(double concentration, double a, double b) {
  return std::log(concentration) +
         (concentration - 1.0) * (Digamma(b) - Digamma(a + b));
}

}  // namespace

ElboTerms ComputeElboTerms(const CpaModel& model, const AnswerMatrix& answers) {
  ElboTerms terms;
  const std::size_t M = model.num_communities();
  const std::size_t T = model.num_clusters();
  const std::size_t C = model.num_labels();

  // --- E[ln p(x | z, l, ψ)] (+ constant multinomial coefficients ln |x|!).
  // ϕ is read by its nonzero entries: a zero entry only ever added +0.0.
  for (const Answer& a : answers.answers()) {
    const auto kappa_row = model.kappa.Row(a.worker);
    double expected = 0.0;
    model.phi.ForEachNonzero(a.item, [&](std::size_t t, double phi_it) {
      if (phi_it < kSkipMass) return;
      const auto psi_row = model.elog_psi.Row(t);
      double inner = 0.0;
      for (std::size_t m = 0; m < M; ++m) {
        if (kappa_row[m] < kSkipMass) continue;
        double loglik = 0.0;
        for (LabelId c : a.labels) loglik += psi_row[c * M + m];
        inner += kappa_row[m] * loglik;
      }
      expected += phi_it * inner;
    });
    terms.answer_loglik +=
        expected + LogGamma(static_cast<double>(a.labels.size()) + 1.0);
  }

  // --- E[ln p(z | π)] and entropy of q(z).
  for (std::size_t u = 0; u < model.num_workers(); ++u) {
    const auto row = model.kappa.Row(u);
    for (std::size_t m = 0; m < M; ++m) {
      if (row[m] > 1e-300) terms.community_prior += row[m] * model.elog_pi[m];
    }
    terms.entropy += CategoricalEntropy(row);
  }

  // --- E[ln p(l | τ)], E[ln p(ỹ | l, θ)] (Beta-Bernoulli channel) and
  // entropy of q(l).
  for (std::size_t i = 0; i < model.num_items(); ++i) {
    const bool evidenced = !model.y_evidence[i].empty();
    const double multiplicity = model.y_evidence_weight[i];
    double entropy = 0.0;
    model.phi.ForEachNonzero(i, [&](std::size_t t, double phi_it) {
      if (phi_it > 1e-300) terms.cluster_prior += phi_it * model.elog_tau[t];
      if (evidenced) {
        double term = model.elog_theta_base[t];
        for (const auto& [c, weight] : model.y_evidence[i]) {
          term += weight * (model.elog_theta(t, c) - model.elog_not_theta(t, c));
        }
        terms.label_loglik += multiplicity * phi_it * term;
      }
      if (phi_it > 1e-300) entropy -= phi_it * std::log(phi_it);
    });
    terms.entropy += entropy;
  }

  // --- Stick priors Beta(1, α) / Beta(1, ε) and stick entropies.
  const double alpha = model.options().alpha;
  for (std::size_t m = 0; m + 1 < M; ++m) {
    terms.stick_priors += StickPriorExpectation(alpha, model.rho(m, 0), model.rho(m, 1));
    terms.entropy += BetaEntropy(model.rho(m, 0), model.rho(m, 1));
  }
  const double epsilon = model.options().epsilon;
  for (std::size_t t = 0; t + 1 < T; ++t) {
    terms.stick_priors +=
        StickPriorExpectation(epsilon, model.upsilon(t, 0), model.upsilon(t, 1));
    terms.entropy += BetaEntropy(model.upsilon(t, 0), model.upsilon(t, 1));
  }

  // --- Dirichlet priors and entropies for ψ and φ.
  const double lambda0 = model.options().lambda0;
  const double log_beta_lambda0 = LogSymmetricBeta(lambda0, C);
  std::vector<double> lambda_row(C);
  for (std::size_t t = 0; t < T; ++t) {
    const auto psi_row = model.elog_psi.Row(t);
    for (std::size_t m = 0; m < M; ++m) {
      double sum_elog = 0.0;
      for (std::size_t c = 0; c < C; ++c) sum_elog += psi_row[c * M + m];
      terms.dirichlet_priors += -log_beta_lambda0 + (lambda0 - 1.0) * sum_elog;
      model.CopyLambdaRow(t, m, lambda_row);
      terms.entropy += DirichletEntropy(lambda_row);
    }
  }
  // --- Beta-Bernoulli label channel: priors and entropies of θ_tc. (The
  // Dirichlet φ profile ζ is a derived statistic outside the generative
  // story once the Bernoulli channel carries the label evidence, so it
  // does not appear in the bound.)
  const double a0 = model.theta_prior_on();
  const double b0 = model.theta_prior_off();
  const double log_beta_theta0 = LogBeta(a0, b0);
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t c = 0; c < C; ++c) {
      terms.dirichlet_priors += -log_beta_theta0 +
                                (a0 - 1.0) * model.elog_theta(t, c) +
                                (b0 - 1.0) * model.elog_not_theta(t, c);
      terms.entropy += BetaEntropy(model.theta_a(t, c), model.theta_b(t, c));
    }
  }

  return terms;
}

double ComputeElbo(const CpaModel& model, const AnswerMatrix& answers) {
  return ComputeElboTerms(model, answers).Total();
}

}  // namespace cpa
