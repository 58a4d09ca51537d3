#ifndef CPA_CORE_CPA_OPTIONS_H_
#define CPA_CORE_CPA_OPTIONS_H_

/// \file cpa_options.h
/// \brief Configuration of the CPA model, its inference and its prediction.

#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace cpa {

/// \brief How the cluster label profiles φ obtain evidence when the true
/// labels `y` are not observed (all of the paper's experiments run with
/// `y = ∅`, and the paper's literal Eq. 7 then leaves φ at its prior;
/// docs/BENCHMARKS.md "Design choices" gives the ablation rows).
enum class LabelEvidence {
  /// Paper-literal: only observed true labels update ζ. With y = ∅ the
  /// profiles stay at their prior (provided for ablation).
  kObservedOnly,

  /// Each item contributes its mean answer indicator (the Appendix-B
  /// reading, where E[ln p(y|φ)] is computed from the answers).
  kAnswerFrequency,

  /// Like kAnswerFrequency, but each answer is weighted by its worker's
  /// community reliability — a community's reliability being the agreement
  /// of its confusion vectors ψ with the cluster profiles φ across
  /// clusters. This mutual-reinforcement loop suppresses spammer influence
  /// on the profiles. Default.
  kReliabilityWeighted,

  /// Feeds the greedy MAP prediction of each sweep back as hard pseudo
  /// truth (bootstrap sweep uses answer frequency).
  kSelfTraining,
};

/// \brief How label sets are instantiated from the posterior (§3.4).
enum class PredictionMode {
  /// Greedy MAP under the multinomial profile with a per-cluster
  /// label-set-size prior. Provided as the paper-literal design; even with
  /// the size prior the multinomial mass of an n-label set decays like
  /// n!/n^n ≈ e^{−n}, so this mode systematically under-predicts large
  /// sets (docs/BENCHMARKS.md "Design choices").
  kMultinomialSizePrior,

  /// Per-cluster Bernoulli label profiles mixed by the answer-reweighted
  /// cluster posterior; the MAP is exactly the characteristic label set of
  /// the item's clusters, with no size degeneracy. Default.
  kBernoulliProfile,
};

/// \brief All knobs of the CPA model.
struct CpaOptions {
  /// Options sized for a concrete dataset: the cluster truncation tracks
  /// the item count (clusters gather items with near-identical label sets,
  /// so T must be able to hold roughly one cluster per distinct consensus
  /// set — the paper sets its truncation as high as 1000), capped so the
  /// confusion bank λ (T·M·C doubles, twice with its expectation cache)
  /// stays within a memory budget.
  static CpaOptions Recommended(std::size_t num_items, std::size_t num_labels);
  /// Truncation of the worker-community stick-breaking process (M). "Can
  /// safely be set to large values" (§3.2) — the CRP prior deactivates
  /// unneeded components.
  std::size_t max_communities = 16;

  /// Truncation of the item-cluster stick-breaking process (T). Clusters
  /// gather items with (near-)identical label sets, so T must be large
  /// enough to hold one cluster per frequent distinct label set — much
  /// larger than any "topic count" intuition suggests (the paper sets the
  /// truncation as high as 1000).
  std::size_t max_clusters = 64;

  /// CRP concentration for worker communities (α) and item clusters (ε).
  double alpha = 1.0;
  double epsilon = 1.0;

  /// Symmetric Dirichlet priors for the confusion vectors ψ (λ₀) and the
  /// cluster label profiles φ (ζ₀).
  double lambda0 = 0.1;
  double zeta0 = 0.1;

  /// Beta prior of the per-cluster per-label Bernoulli channel:
  /// θ_tc ~ Beta(mean·strength, (1−mean)·strength). The prior mean MUST
  /// match the label sparsity of the data — with C labels and ~k-label
  /// items, a fresh cluster under a mean-0.3 prior would "assert" every
  /// label at 0.3 and pay ≈ 0.36·C nats of base evidence versus populated
  /// clusters, starving small clusters at scale. 0 (default) calibrates
  /// the mean to (mean answer size)/C from the data.
  double theta_prior_mean = 0.0;
  double theta_prior_strength = 1.0;

  /// Offline VI stopping rule: iterate until the largest responsibility
  /// change falls below `tolerance` (the paper converges at 1e-3) or
  /// `max_iterations` sweeps.
  std::size_t max_iterations = 50;
  double tolerance = 1e-3;

  /// Unsupervised label-evidence strategy (see `LabelEvidence`).
  LabelEvidence label_evidence = LabelEvidence::kReliabilityWeighted;

  /// Label-set instantiation mode (§3.4).
  PredictionMode prediction_mode = PredictionMode::kBernoulliProfile;

  /// Per item, prediction considers the labels present in the item's
  /// answers plus this many top-profile labels from each likely cluster
  /// (cluster-completion candidates; exploits R3 without scanning all C).
  std::size_t prediction_candidates_per_cluster = 10;

  /// Floor for worker reliability weights in kReliabilityWeighted.
  double reliability_floor = 0.05;

  /// kReliabilityWeighted details: a worker's reliability is its mean
  /// soft-Jaccard agreement with the current consensus, shrunk toward its
  /// community's (answer-weighted) mean agreement with strength
  /// `reliability_shrinkage` pseudo-answers — the community pooling that
  /// keeps estimates stable for workers with few answers (R1, Fig 3) —
  /// and raised to `reliability_sharpness` to widen the honest/spammer
  /// gap.
  double reliability_shrinkage = 10.0;
  double reliability_sharpness = 2.0;

  /// Weight of the label-evidence term in the item-cluster update. The
  /// consensus pseudo-observation ỹ competes against n_i answer
  /// observations; 0 (default) scales it by the item's answer count so the
  /// two forces stay commensurate, any positive value is used verbatim
  /// (1.0 reproduces the paper-literal single-observation weight).
  double evidence_scale = 0.0;

  /// During the first sweeps the consensus evidence sharpens quickly as
  /// worker reliability is learned; the cluster seeding is therefore
  /// re-derived from the refreshed consensus for this many sweeps before
  /// the soft coordinate updates take over (a seeding built only from the
  /// bootstrap consensus fragments at scale — raw label frequencies
  /// straddle the majority threshold).
  std::size_t reseed_sweeps = 3;

  /// Include the answer-likelihood term Σ_u Σ_m κ_um E[ln p(x_iu|ψ_tm)] in
  /// the item-cluster update. The paper's Eq. 3 omits it (evidence-only
  /// clustering; default false). Restoring it makes the sweep exact
  /// mean-field coordinate ascent on the ELBO — but E[ln ψ] carries a
  /// Jensen penalty proportional to bank sparsity, so data-rich clusters
  /// are systematically favoured and small clusters starve at scale.
  bool phi_answer_term = false;

  /// Seed for the randomised initialisation of responsibilities.
  std::uint64_t seed = 42;

  /// Variant switches (§5.4): singleton communities ("No Z") fixes each
  /// worker to its own community; singleton clusters ("No L") fixes each
  /// item to its own cluster and uses bounded-exhaustive prediction.
  bool singleton_communities = false;
  bool singleton_clusters = false;

  /// Replace the greedy label-set search by bounded-exhaustive subset
  /// enumeration (the paper's 2^C instantiation; used by the No L variant
  /// and as a greedy oracle in tests). Only feasible for small label
  /// universes.
  bool exhaustive_prediction = false;

  /// Memory guard for the No L variant (λ then has I·M·C entries; the
  /// paper found No L "intractable for all except the movie dataset").
  std::size_t no_l_parameter_limit = 50'000'000;

  Status Validate() const;
};

}  // namespace cpa

#endif  // CPA_CORE_CPA_OPTIONS_H_
