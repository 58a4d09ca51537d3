#include "core/cpa_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/sweep/sweep_scheduler.h"
#include "engine/checkpoint.h"
#include "util/logging.h"
#include "util/special_functions.h"
#include "util/string_utils.h"

namespace cpa {
namespace {

/// Clusters per shard of the sharded expectation refresh: a cluster costs
/// M·C + 3C digammas, so at the Fig 7 shape (T = 1024) two shards split
/// the refresh, while sessions of fewer than 2 × 512 clusters refresh
/// inline, without a pool hand-off.
constexpr std::size_t kRefreshClusterGrain = 512;

}  // namespace

CpaOptions CpaOptions::Recommended(std::size_t num_items, std::size_t num_labels) {
  CpaOptions options;
  options.max_communities = 8;
  // ~100 MB for λ + its expectation cache at 8 bytes a double.
  const std::size_t bank_entry_budget = 6'000'000;
  const std::size_t memory_cap = std::max<std::size_t>(
      32, bank_entry_budget /
              (options.max_communities * std::max<std::size_t>(1, num_labels)));
  // With few labels there are at most 2^C distinct label sets to represent.
  const std::size_t combinatorial_cap =
      num_labels < 16 ? (std::size_t{1} << num_labels) : std::size_t{1} << 16;
  options.max_clusters = std::max<std::size_t>(
      16, std::min({num_items + 16, memory_cap, combinatorial_cap}));
  return options;
}

Status CpaOptions::Validate() const {
  if (max_communities == 0) return Status::InvalidArgument("max_communities must be > 0");
  if (max_clusters == 0) return Status::InvalidArgument("max_clusters must be > 0");
  if (alpha <= 0.0 || epsilon <= 0.0) {
    return Status::InvalidArgument("CRP concentrations must be positive");
  }
  if (lambda0 <= 0.0 || zeta0 <= 0.0) {
    return Status::InvalidArgument("Dirichlet priors must be positive");
  }
  if (max_iterations == 0) return Status::InvalidArgument("max_iterations must be > 0");
  if (tolerance <= 0.0) return Status::InvalidArgument("tolerance must be positive");
  return Status::OK();
}

void StickBreakingExpectedLog(const Matrix& sticks, std::vector<double>& out) {
  const std::size_t K = sticks.rows() + 1;
  out.assign(K, 0.0);
  double acc_log_one_minus = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    if (k + 1 < K) {
      const double a = sticks(k, 0);
      const double b = sticks(k, 1);
      const double digamma_ab = Digamma(a + b);
      out[k] = Digamma(a) - digamma_ab + acc_log_one_minus;
      acc_log_one_minus += Digamma(b) - digamma_ab;
    } else {
      // Last component absorbs the remaining stick: π'_K = 1.
      out[k] = acc_log_one_minus;
    }
  }
}

Result<CpaModel> CpaModel::Create(std::size_t num_items, std::size_t num_workers,
                                  std::size_t num_labels, const CpaOptions& options) {
  CPA_RETURN_NOT_OK(options.Validate());
  if (num_labels == 0) return Status::InvalidArgument("num_labels must be positive");

  CpaModel model;
  model.options_ = options;
  model.num_items_ = num_items;
  model.num_workers_ = num_workers;
  model.num_labels_ = num_labels;
  model.M_ = options.singleton_communities ? std::max<std::size_t>(1, num_workers)
                                           : options.max_communities;
  model.T_ = options.singleton_clusters ? std::max<std::size_t>(1, num_items)
                                        : options.max_clusters;

  const std::size_t lambda_entries = model.T_ * model.M_ * num_labels;
  if (lambda_entries > options.no_l_parameter_limit) {
    return Status::Unimplemented(StrFormat(
        "confusion bank needs %zu parameters (> limit %zu); the paper likewise "
        "reports this configuration as intractable (§5.4)",
        lambda_entries, options.no_l_parameter_limit));
  }

  Rng rng(options.seed);

  // Responsibilities: near-uniform with multiplicative jitter, so symmetry
  // between the truncated components is broken deterministically. ϕ draws
  // the same way from the same stream (`PhiRows::ResetJittered`), but keeps
  // one generator state per row instead of the I×T values.
  model.kappa.Reset(num_workers, model.M_);
  if (options.singleton_communities) {
    for (std::size_t u = 0; u < num_workers; ++u) model.kappa(u, u % model.M_) = 1.0;
  } else {
    for (std::size_t u = 0; u < num_workers; ++u) {
      auto row = model.kappa.Row(u);
      for (double& v : row) v = 1.0 + 0.1 * rng.NextDouble();
      NormalizeInPlace(row);
    }
  }
  if (options.singleton_clusters) {
    model.phi.ResetOneHot(num_items, model.T_);
  } else {
    model.phi.ResetJittered(num_items, model.T_, rng);
  }

  model.rho.Reset(model.M_ > 1 ? model.M_ - 1 : 0, 2, 1.0);
  for (std::size_t m = 0; m + 1 < model.M_; ++m) model.rho(m, 1) = options.alpha;
  model.upsilon.Reset(model.T_ > 1 ? model.T_ - 1 : 0, 2, 1.0);
  for (std::size_t t = 0; t + 1 < model.T_; ++t) model.upsilon(t, 1) = options.epsilon;

  // Jitter λ slightly so confusion vectors are not exactly symmetric. The
  // draws go t, then m, then c, the order of the former M × C banks.
  model.lambda.Reset(model.T_, num_labels * model.M_, options.lambda0);
  for (std::size_t t = 0; t < model.T_; ++t) {
    const std::span<double> row = model.lambda.Row(t);
    for (std::size_t m = 0; m < model.M_; ++m) {
      for (std::size_t c = 0; c < num_labels; ++c) {
        row[c * model.M_ + m] += 0.01 * options.lambda0 * rng.NextDouble();
      }
    }
  }
  model.zeta.Reset(model.T_, num_labels, options.zeta0);
  model.theta_a.Reset(model.T_, num_labels, model.theta_prior_on());
  model.theta_b.Reset(model.T_, num_labels, model.theta_prior_off());

  model.y_evidence.assign(num_items, {});
  model.y_evidence_weight.assign(num_items, 0.0);
  model.bernoulli_profile.Reset(model.T_, num_labels, 0.5);
  model.RefreshExpectations(SweepScheduler());
  return model;
}

void CpaModel::RefreshExpectations(const SweepScheduler& scheduler) {
  StickBreakingExpectedLog(rho, elog_pi);
  StickBreakingExpectedLog(upsilon, elog_tau);
  if (elog_psi.rows() != T_ || elog_psi.cols() != num_labels_ * M_) {
    elog_psi.Reset(T_, num_labels_ * M_);
  }
  ResetThetaExpectations();
  // Every cluster's entries are written by one shard, with the inline
  // form's operations; only the placement of the clusters changes.
  scheduler.ParallelFor(
      T_,
      [&](std::size_t begin, std::size_t end) {
        RefreshPsiRows(begin, end);
        RefreshThetaRows(begin, end);
      },
      kRefreshClusterGrain);
}

void CpaModel::CalibrateThetaPrior(std::size_t label_total, std::size_t answers) {
  if (answers == 0) return;
  const double mean_answer_size =
      static_cast<double>(label_total) / static_cast<double>(answers);
  theta_prior_mean_ =
      std::clamp(mean_answer_size / static_cast<double>(num_labels_), 0.005, 0.45);
}

void CpaModel::RefreshThetaExpectations() {
  ResetThetaExpectations();
  RefreshThetaRows(0, T_);
}

void CpaModel::ResetThetaExpectations() {
  elog_theta.Reset(T_, num_labels_);
  elog_not_theta.Reset(T_, num_labels_);
  elog_theta_base.assign(T_, 0.0);
  elog_theta_delta_t.Reset(num_labels_, T_);
  bernoulli_profile.Reset(T_, num_labels_);
}

void CpaModel::CopyLambdaRow(std::size_t t, std::size_t m, std::span<double> out) const {
  CPA_CHECK_EQ(out.size(), num_labels_);
  const std::span<const double> row = lambda.Row(t);
  for (std::size_t c = 0; c < num_labels_; ++c) out[c] = row[c * M_ + m];
}

void CpaModel::RefreshPsiRows(std::size_t begin, std::size_t end) {
  // Each λ row's expectation is computed contiguously, then scattered to
  // its community's column of every label cell.
  std::vector<double> lambda_row(num_labels_);
  std::vector<double> expected(num_labels_);
  for (std::size_t t = begin; t < end; ++t) {
    const std::span<double> row = elog_psi.Row(t);
    for (std::size_t m = 0; m < M_; ++m) {
      CopyLambdaRow(t, m, lambda_row);
      DirichletExpectedLog(lambda_row, expected);
      for (std::size_t c = 0; c < num_labels_; ++c) row[c * M_ + m] = expected[c];
    }
  }
}

void CpaModel::RefreshThetaRows(std::size_t begin, std::size_t end) {
  // Row spans rather than the bounds-checked element accessor; the
  // label-major delta cache is addressed as c·T + t.
  const std::span<double> delta = elog_theta_delta_t.Data();
  for (std::size_t t = begin; t < end; ++t) {
    const auto a_row = theta_a.Row(t);
    const auto b_row = theta_b.Row(t);
    const auto on_row = elog_theta.Row(t);
    const auto off_row = elog_not_theta.Row(t);
    const auto profile_row = bernoulli_profile.Row(t);
    double base = 0.0;
    for (std::size_t c = 0; c < num_labels_; ++c) {
      const double a = a_row[c];
      const double b = b_row[c];
      const double digamma_ab = Digamma(a + b);
      on_row[c] = Digamma(a) - digamma_ab;
      off_row[c] = Digamma(b) - digamma_ab;
      base += off_row[c];
      delta[c * T_ + t] = on_row[c] - off_row[c];
      profile_row[c] = a / (a + b);
    }
    elog_theta_base[t] = base;
  }
}

std::size_t CpaModel::WorkerCommunity(WorkerId u) const { return kappa.ArgMaxRow(u); }

std::size_t CpaModel::ItemCluster(ItemId i) const { return phi.ArgMax(i); }

std::vector<double> CpaModel::CommunitySizes() const {
  std::vector<double> sizes(M_, 0.0);
  for (std::size_t u = 0; u < num_workers_; ++u) {
    const auto row = kappa.Row(u);
    for (std::size_t m = 0; m < M_; ++m) sizes[m] += row[m];
  }
  return sizes;
}

std::vector<double> CpaModel::ClusterSizes() const {
  std::vector<double> sizes(T_, 0.0);
  phi.AddRows(0, num_items_, sizes);
  return sizes;
}

std::vector<double> CpaModel::PsiMean(std::size_t t, std::size_t m) const {
  std::vector<double> mean(num_labels_);
  CopyLambdaRow(t, m, mean);
  NormalizeInPlace(mean);
  return mean;
}

std::vector<double> CpaModel::PhiMean(std::size_t t) const {
  const auto row = zeta.Row(t);
  std::vector<double> mean(row.begin(), row.end());
  NormalizeInPlace(mean);
  return mean;
}

std::vector<double> CpaModel::CommunityReliability() const {
  const std::vector<double> cluster_sizes = ClusterSizes();
  std::vector<double> weights = cluster_sizes;
  NormalizeInPlace(weights);

  std::vector<double> reliability(M_, 0.0);
  std::vector<double> psi_mean;
  std::vector<double> phi_mean;
  for (std::size_t m = 0; m < M_; ++m) {
    double score = 0.0;
    for (std::size_t t = 0; t < T_; ++t) {
      if (weights[t] <= 1e-9) continue;
      psi_mean = PsiMean(t, m);
      phi_mean = PhiMean(t);
      score += weights[t] * CosineSimilarity(psi_mean, phi_mean);
    }
    reliability[m] = std::clamp(score, kReliabilityFloor, 1.0);
  }
  return reliability;
}

namespace {

std::size_t CountEffective(const std::vector<double>& sizes, double min_weight) {
  std::size_t count = 0;
  for (double s : sizes) count += (s >= min_weight);
  return count;
}

}  // namespace

std::size_t CpaModel::EffectiveCommunities(double min_weight) const {
  return CountEffective(CommunitySizes(), min_weight);
}

std::size_t CpaModel::EffectiveClusters(double min_weight) const {
  return CountEffective(ClusterSizes(), min_weight);
}

void CpaModel::SaveState(CheckpointWriter& writer) const {
  writer.WriteU64(num_items_);
  writer.WriteU64(num_workers_);
  writer.WriteU64(num_labels_);
  writer.WriteU64(M_);
  writer.WriteU64(T_);
  writer.WriteDouble(theta_prior_mean_);
  writer.WriteMatrix(kappa);
  // ϕ in the `WriteMatrix` layout, one densified row at a time.
  writer.WriteU64(phi.rows());
  writer.WriteU64(phi.cols());
  std::vector<double> row(phi.cols());
  for (std::size_t i = 0; i < phi.rows(); ++i) {
    phi.CopyRow(i, row);
    for (const double value : row) writer.WriteDouble(value);
  }
  writer.WriteMatrix(rho);
  writer.WriteMatrix(upsilon);
  // λ in layout v1's order: T banks of M × C in the `WriteMatrix` layout.
  writer.WriteU64(T_);
  std::vector<double> lambda_row(num_labels_);
  for (std::size_t t = 0; t < T_; ++t) {
    writer.WriteU64(M_);
    writer.WriteU64(num_labels_);
    for (std::size_t m = 0; m < M_; ++m) {
      CopyLambdaRow(t, m, lambda_row);
      for (const double value : lambda_row) writer.WriteDouble(value);
    }
  }
  writer.WriteMatrix(zeta);
  writer.WriteMatrix(theta_a);
  writer.WriteMatrix(theta_b);
  writer.WriteU64(y_evidence.size());
  for (const auto& evidence : y_evidence) {
    writer.WriteU32(static_cast<std::uint32_t>(evidence.size()));
    for (const auto& [label, weight] : evidence) {
      writer.WriteU32(label);
      writer.WriteDouble(weight);
    }
  }
  writer.WriteDoubles(y_evidence_weight);
  // The retired label-set-size prior: an empty placeholder keeps layout v1.
  writer.WriteMatrix(Matrix());
}

Status CpaModel::RestoreState(CheckpointReader& reader) {
  CPA_ASSIGN_OR_RETURN(const std::size_t items, reader.ReadSize());
  CPA_ASSIGN_OR_RETURN(const std::size_t workers, reader.ReadSize());
  CPA_ASSIGN_OR_RETURN(const std::size_t labels, reader.ReadSize());
  CPA_ASSIGN_OR_RETURN(const std::size_t m, reader.ReadSize());
  CPA_ASSIGN_OR_RETURN(const std::size_t t, reader.ReadSize());
  if (items != num_items_ || workers != num_workers_ ||
      labels != num_labels_ || m != M_ || t != T_) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint model dims (I=%zu U=%zu C=%zu M=%zu T=%zu) do not match "
        "this model (I=%zu U=%zu C=%zu M=%zu T=%zu)",
        items, workers, labels, m, t, num_items_, num_workers_, num_labels_,
        M_, T_));
  }
  CPA_ASSIGN_OR_RETURN(theta_prior_mean_, reader.ReadDouble());

  const auto read_matrix = [&reader](Matrix& out, std::size_t rows,
                                     std::size_t cols,
                                     const char* what) -> Status {
    CPA_ASSIGN_OR_RETURN(Matrix matrix, reader.ReadMatrix());
    if (matrix.rows() != rows || matrix.cols() != cols) {
      return Status::InvalidArgument(
          StrFormat("checkpoint %s is %zux%zu, expected %zux%zu", what,
                    matrix.rows(), matrix.cols(), rows, cols));
    }
    out = std::move(matrix);
    return Status::OK();
  };

  CPA_RETURN_NOT_OK(read_matrix(kappa, num_workers_, M_, "kappa"));
  // ϕ row by row from its `WriteMatrix` layout, straight into the sparse
  // store; `PhiRows::Restore` turns rows bit-equal to their initial draw
  // back into initial rows.
  CPA_ASSIGN_OR_RETURN(const std::uint64_t phi_rows, reader.ReadU64());
  CPA_ASSIGN_OR_RETURN(const std::uint64_t phi_cols, reader.ReadU64());
  if (phi_rows != num_items_ || phi_cols != T_) {
    return Status::InvalidArgument(
        StrFormat("checkpoint phi is %llux%llu, expected %zux%zu",
                  static_cast<unsigned long long>(phi_rows),
                  static_cast<unsigned long long>(phi_cols), num_items_, T_));
  }
  std::vector<double> row(T_);
  for (std::size_t i = 0; i < num_items_; ++i) {
    for (double& value : row) {
      CPA_ASSIGN_OR_RETURN(value, reader.ReadDouble());
    }
    phi.Restore(i, row);
  }
  CPA_RETURN_NOT_OK(read_matrix(rho, M_ > 0 ? M_ - 1 : 0, 2, "rho"));
  CPA_RETURN_NOT_OK(read_matrix(upsilon, T_ > 0 ? T_ - 1 : 0, 2, "upsilon"));
  CPA_ASSIGN_OR_RETURN(const std::size_t banks, reader.ReadSize());
  if (banks != T_) {
    return Status::InvalidArgument("checkpoint lambda bank count != T");
  }
  // Each M × C bank is checked, then scattered into its label-major row.
  // λ holds Dirichlet parameters, so every entry must be > 0 (which also
  // keeps −0.0 out of the cells `answer_lambda_add` writes, simd.h).
  lambda.Reset(T_, num_labels_ * M_);
  Matrix bank;
  for (std::size_t k = 0; k < T_; ++k) {
    CPA_RETURN_NOT_OK(read_matrix(bank, M_, num_labels_, "lambda"));
    const std::span<double> row = lambda.Row(k);
    for (std::size_t m = 0; m < M_; ++m) {
      for (std::size_t c = 0; c < num_labels_; ++c) {
        const double value = bank(m, c);
        if (!(value > 0.0)) {
          return Status::InvalidArgument(StrFormat(
              "checkpoint lambda(%zu, %zu, %zu) = %g is not positive", k, m, c, value));
        }
        row[c * M_ + m] = value;
      }
    }
  }
  CPA_RETURN_NOT_OK(read_matrix(zeta, T_, num_labels_, "zeta"));
  CPA_RETURN_NOT_OK(read_matrix(theta_a, T_, num_labels_, "theta_a"));
  CPA_RETURN_NOT_OK(read_matrix(theta_b, T_, num_labels_, "theta_b"));
  CPA_ASSIGN_OR_RETURN(const std::size_t evidence_items, reader.ReadSize());
  if (evidence_items != num_items_) {
    return Status::InvalidArgument("checkpoint y_evidence length != I");
  }
  y_evidence.assign(num_items_, {});
  for (auto& evidence : y_evidence) {
    CPA_ASSIGN_OR_RETURN(const std::uint32_t nnz, reader.ReadU32());
    // Each entry is a u32 label + f64 weight = 12 bytes.
    if (nnz > reader.remaining() / 12) {
      return Status::InvalidArgument("checkpoint y_evidence nnz too large");
    }
    evidence.reserve(nnz);
    for (std::uint32_t k = 0; k < nnz; ++k) {
      CPA_ASSIGN_OR_RETURN(const std::uint32_t label, reader.ReadU32());
      CPA_ASSIGN_OR_RETURN(const double weight, reader.ReadDouble());
      if (label >= num_labels_) {
        return Status::InvalidArgument("checkpoint y_evidence label too big");
      }
      evidence.emplace_back(label, weight);
    }
  }
  CPA_ASSIGN_OR_RETURN(y_evidence_weight, reader.ReadDoubles());
  if (y_evidence_weight.size() != num_items_) {
    return Status::InvalidArgument("checkpoint y_evidence_weight length != I");
  }
  // The retired label-set-size prior (T rows in older blobs, empty since):
  // read, checked and discarded.
  CPA_ASSIGN_OR_RETURN(const Matrix retired_prior, reader.ReadMatrix());
  if (retired_prior.rows() != T_ && !retired_prior.empty()) {
    return Status::InvalidArgument("checkpoint label-set-size prior rows != T");
  }
  RefreshExpectations(SweepScheduler());
  return Status::OK();
}

}  // namespace cpa
