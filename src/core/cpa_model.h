#ifndef CPA_CORE_CPA_MODEL_H_
#define CPA_CORE_CPA_MODEL_H_

/// \file cpa_model.h
/// \brief The variational state of the CPA model (§3.2–§3.3).
///
/// Notation mapping (paper → member):
///   κ (worker-community responsibilities, U×M)  → `kappa`
///   ϕ (item-cluster responsibilities, I×T)      → `phi`
///   ρ (Beta params of the π′ sticks, (M−1)×2)   → `rho`
///   υ (Beta params of the τ′ sticks, (T−1)×2)   → `upsilon`
///   λ (Dirichlet params of ψ_tm, T×M×C)         → `lambda[t](m,c)`
///   ζ (Dirichlet params of φ_t, T×C)            → `zeta`
///
/// The model additionally maintains the per-item soft label evidence ỹ
/// (sparse I×C) driving ζ when true labels are unobserved (`LabelEvidence`),
/// cached digamma expectations refreshed once per sweep, and the
/// per-cluster label-set-size distribution used by prediction
/// (`PredictionMode::kMultinomialSizePrior`).
///
/// The parameter members are deliberately public: the inference modules
/// (vi.cc, svi.cc) own their mutation. External consumers use the
/// posterior accessors at the bottom.

#include <cstddef>
#include <utility>
#include <vector>

#include "core/cpa_options.h"
#include "data/answer_matrix.h"
#include "data/label_set.h"
#include "data/types.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace cpa {

class CheckpointWriter;
class CheckpointReader;

/// \brief Variational parameters, expectations and posterior accessors.
class CpaModel {
 public:
  CpaModel() = default;

  /// Creates an initialised model. Truncations come from `options` unless a
  /// singleton variant overrides them (No Z: M = U; No L: T = I, guarded by
  /// `no_l_parameter_limit`).
  static Result<CpaModel> Create(std::size_t num_items, std::size_t num_workers,
                                 std::size_t num_labels, const CpaOptions& options);

  /// \name Dimensions.
  /// @{
  std::size_t num_items() const { return num_items_; }
  std::size_t num_workers() const { return num_workers_; }
  std::size_t num_labels() const { return num_labels_; }
  std::size_t num_communities() const { return M_; }  ///< truncation M
  std::size_t num_clusters() const { return T_; }     ///< truncation T
  const CpaOptions& options() const { return options_; }
  /// @}

  /// \name Variational parameters (mutated by the inference modules).
  /// @{
  Matrix kappa;                 ///< U × M responsibilities q(z_u = m)
  Matrix phi;                   ///< I × T responsibilities q(l_i = t)
  Matrix rho;                   ///< (M−1) × 2 Beta params of π′
  Matrix upsilon;               ///< (T−1) × 2 Beta params of τ′
  std::vector<Matrix> lambda;   ///< T matrices of M × C Dirichlet params of ψ
  Matrix zeta;                  ///< T × C Dirichlet params of φ (multinomial channel)

  /// Beta-Bernoulli label channel: per (cluster, label) Beta(a, b)
  /// posteriors of θ_tc = P(label c applies to items of cluster t). This is
  /// the emission the pseudo-label evidence ỹ feeds (`LabelEvidence`): a
  /// Bernoulli channel carries *negative* evidence (a cluster asserting
  /// labels an item lacks is penalised), which the multinomial φ cannot.
  Matrix theta_a;               ///< T × C
  Matrix theta_b;               ///< T × C
  /// @}

  /// Soft label evidence ỹ per item: sparse (label, weight) pairs in
  /// [0, 1]; drives the θ channel, ζ and the evidence term of the ϕ update.
  std::vector<std::vector<std::pair<LabelId, double>>> y_evidence;

  /// Pseudo-observation count of each item's evidence (0 when absent).
  /// The consensus ỹ_i distils n_i answers, so it enters the ϕ update and
  /// the θ/ζ statistics with this multiplicity (cpa_options.h,
  /// `evidence_scale`).
  std::vector<double> y_evidence_weight;

  /// \name Cached expectations (call RefreshExpectations after mutating
  /// parameters).
  /// @{
  std::vector<double> elog_pi;   ///< E[ln π_m], length M
  std::vector<double> elog_tau;  ///< E[ln τ_t], length T
  std::vector<Matrix> elog_psi;  ///< E[ln ψ_tmc]: T matrices of M × C
  Matrix elog_phi;               ///< E[ln φ_tc]: T × C
  Matrix elog_theta;             ///< E[ln θ_tc]: T × C
  Matrix elog_not_theta;         ///< E[ln (1−θ_tc)]: T × C
  std::vector<double> elog_theta_base;  ///< Σ_c E[ln (1−θ_tc)], length T

  /// E[ln θ_tc] − E[ln(1−θ_tc)] transposed to C × T: the ϕ-update evidence
  /// term is a per-label AXPY over clusters, so the sweep kernels
  /// (core/sweep/) want label-major rows contiguous over t.
  Matrix elog_theta_delta_t;
  /// @}

  /// Per-cluster label-set-size distribution (T × (S+1)); rebuilt by the
  /// inference from answer-set sizes, used by greedy prediction.
  Matrix size_prior;

  /// Posterior means θ̂_tc = a/(a+b) of the Beta-Bernoulli channel (T × C);
  /// refreshed with the expectations. Used for marginal label scores and
  /// the kBernoulliProfile prediction mode.
  Matrix bernoulli_profile;

  /// Recomputes every cached expectation from the current parameters.
  void RefreshExpectations();

  /// Recomputes only the θ-channel expectations (elog_theta,
  /// elog_not_theta, elog_theta_base, bernoulli_profile) — the cheap subset
  /// the online learner needs inside its reinforcement rounds.
  void RefreshThetaExpectations();

  /// E[ln p(x | ψ_tm)] up to the answer's constant multinomial coefficient:
  /// Σ_{c∈x} E[ln ψ_tmc] (Appendix B).
  double AnswerExpectedLogLik(std::size_t t, std::size_t m,
                              const LabelSet& labels) const;

  /// Rebuilds `size_prior` from ϕ-weighted answer-set-size counts
  /// (Laplace-smoothed rows over sizes 0..max|x|+2).
  void UpdateSizePrior(const AnswerMatrix& answers);

  /// \name Effective Beta prior of the θ channel.
  /// Calibrated from the data when `CpaOptions::theta_prior_mean` is 0
  /// (see cpa_options.h); the inference calls SetThetaPriorMean once it
  /// has seen answers.
  /// @{
  double theta_prior_on() const {
    return theta_prior_mean_ * options_.theta_prior_strength;
  }
  double theta_prior_off() const {
    return (1.0 - theta_prior_mean_) * options_.theta_prior_strength;
  }
  double theta_prior_mean() const { return theta_prior_mean_; }
  void SetThetaPriorMean(double mean);
  /// @}

  /// \name Checkpointing (engine/checkpoint.h).
  ///
  /// `SaveState` writes every variational parameter plus the calibrated θ
  /// prior; `RestoreState` overwrites them on a model `Create`d with the
  /// same dimensions and refreshes the cached expectations, so a restored
  /// model is indistinguishable from the saved one.
  /// @{
  void SaveState(CheckpointWriter& writer) const;
  Status RestoreState(CheckpointReader& reader);
  /// @}

  /// \name Posterior accessors (public API).
  /// @{

  /// MAP community of worker u (argmax κ row).
  std::size_t WorkerCommunity(WorkerId u) const;

  /// MAP cluster of item i (argmax ϕ row).
  std::size_t ItemCluster(ItemId i) const;

  /// Expected community sizes Σ_u κ_um.
  std::vector<double> CommunitySizes() const;

  /// Expected cluster sizes Σ_i ϕ_it.
  std::vector<double> ClusterSizes() const;

  /// Posterior-mean confusion vector ψ̂_tm (normalised λ row).
  std::vector<double> PsiMean(std::size_t t, std::size_t m) const;

  /// Posterior-mean cluster label profile φ̂_t (normalised ζ row).
  std::vector<double> PhiMean(std::size_t t) const;

  /// Community reliability r_m ∈ [floor, 1]: cluster-size-weighted cosine
  /// agreement between the community's confusion vectors and the cluster
  /// profiles. Spam communities (fixated or uniform ψ) score low.
  std::vector<double> CommunityReliability() const;

  /// Effective number of communities/clusters: components holding at least
  /// `min_weight` expected members.
  std::size_t EffectiveCommunities(double min_weight = 1.0) const;
  std::size_t EffectiveClusters(double min_weight = 1.0) const;

  /// @}

 private:
  std::size_t num_items_ = 0;
  std::size_t num_workers_ = 0;
  std::size_t num_labels_ = 0;
  std::size_t M_ = 0;
  std::size_t T_ = 0;
  double theta_prior_mean_ = 0.1;
  CpaOptions options_;
};

/// Computes E[ln component_k] of a stick-breaking process truncated to
/// `sticks.rows() + 1` components from Beta parameters (exposed for tests).
void StickBreakingExpectedLog(const Matrix& sticks, std::vector<double>& out);

}  // namespace cpa

#endif  // CPA_CORE_CPA_MODEL_H_
