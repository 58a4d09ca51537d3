#include "core/cpa_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/sweep/sweep_scheduler.h"
#include "engine/checkpoint.h"
#include "util/rng.h"
#include "util/special_functions.h"
#include "util/thread_pool.h"

namespace cpa {
namespace {

CpaOptions SmallOptions() {
  CpaOptions options;
  options.max_communities = 5;
  options.max_clusters = 4;
  return options;
}

TEST(CpaOptionsTest, DefaultsValidate) { EXPECT_TRUE(CpaOptions().Validate().ok()); }

TEST(CpaOptionsTest, RejectsBadValues) {
  CpaOptions options;
  options.max_communities = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = CpaOptions();
  options.alpha = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options = CpaOptions();
  options.lambda0 = -1.0;
  EXPECT_FALSE(options.Validate().ok());
  options = CpaOptions();
  options.tolerance = 0.0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(CpaModelTest, CreateShapes) {
  const auto model = CpaModel::Create(10, 7, 6, SmallOptions());
  ASSERT_TRUE(model.ok());
  const CpaModel& m = model.value();
  EXPECT_EQ(m.num_items(), 10u);
  EXPECT_EQ(m.num_workers(), 7u);
  EXPECT_EQ(m.num_labels(), 6u);
  EXPECT_EQ(m.num_communities(), 5u);
  EXPECT_EQ(m.num_clusters(), 4u);
  EXPECT_EQ(m.kappa.rows(), 7u);
  EXPECT_EQ(m.kappa.cols(), 5u);
  EXPECT_EQ(m.phi.rows(), 10u);
  EXPECT_EQ(m.phi.cols(), 4u);
  EXPECT_EQ(m.rho.rows(), 4u);     // M - 1
  EXPECT_EQ(m.upsilon.rows(), 3u); // T - 1
  EXPECT_EQ(m.lambda.rows(), 4u);   // T
  EXPECT_EQ(m.lambda.cols(), 30u);  // C·M
  EXPECT_EQ(m.zeta.rows(), 4u);
  EXPECT_EQ(m.zeta.cols(), 6u);
}

TEST(CpaModelTest, ResponsibilitiesAreRowStochastic) {
  const auto model = CpaModel::Create(10, 7, 6, SmallOptions());
  ASSERT_TRUE(model.ok());
  for (std::size_t u = 0; u < 7; ++u) {
    EXPECT_NEAR(model.value().kappa.RowSum(u), 1.0, 1e-9);
  }
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(Sum(model.value().phi.DenseRow(i)), 1.0, 1e-9);
  }
}

TEST(CpaModelTest, SingletonVariantsUseIdentityResponsibilities) {
  CpaOptions no_z = SmallOptions();
  no_z.singleton_communities = true;
  const auto model = CpaModel::Create(6, 4, 3, no_z);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().num_communities(), 4u);
  for (std::size_t u = 0; u < 4; ++u) {
    EXPECT_DOUBLE_EQ(model.value().kappa(u, u), 1.0);
  }

  CpaOptions no_l = SmallOptions();
  no_l.singleton_clusters = true;
  const auto model_l = CpaModel::Create(6, 4, 3, no_l);
  ASSERT_TRUE(model_l.ok());
  EXPECT_EQ(model_l.value().num_clusters(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(model_l.value().phi.At(i, i), 1.0);
  }
}

TEST(CpaModelTest, NoLParameterGuardRefusesHugeConfigurations) {
  CpaOptions no_l = SmallOptions();
  no_l.singleton_clusters = true;
  no_l.no_l_parameter_limit = 100;  // 6 items * 5 communities * 10 labels > 100
  const auto model = CpaModel::Create(6, 4, 10, no_l);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kUnimplemented);
}

TEST(StickBreakingTest, UniformSticksFavourEarlierComponents) {
  Matrix sticks(3, 2, 1.0);  // Beta(1,1) on each stick
  std::vector<double> elog;
  StickBreakingExpectedLog(sticks, elog);
  ASSERT_EQ(elog.size(), 4u);
  // E[ln pi_1] = Psi(1) - Psi(2); later components accumulate E[ln(1-v)].
  EXPECT_NEAR(elog[0], Digamma(1.0) - Digamma(2.0), 1e-12);
  EXPECT_GT(elog[0], elog[1]);
  EXPECT_GT(elog[1], elog[2]);
  // The last component only carries the accumulated remainder.
  EXPECT_NEAR(elog[3], 3.0 * (Digamma(1.0) - Digamma(2.0)), 1e-12);
}

TEST(StickBreakingTest, ExpectedMassesFormSubProbability) {
  // exp(E[ln pi]) underestimates E[pi] (Jensen) so the sum must be < 1.
  Matrix sticks(4, 2);
  for (std::size_t k = 0; k < 4; ++k) {
    sticks(k, 0) = 2.0 + k;
    sticks(k, 1) = 1.5;
  }
  std::vector<double> elog;
  StickBreakingExpectedLog(sticks, elog);
  double total = 0.0;
  for (double v : elog) total += std::exp(v);
  EXPECT_LT(total, 1.0);
  EXPECT_GT(total, 0.5);
}

TEST(CpaModelTest, RefreshThetaExpectationsMatchesBetaDefinition) {
  // T = 4 clusters, C = 6 labels (non-square, so a transposed index in the
  // label-major delta cache cannot pass), every (a, b) distinct.
  auto model = CpaModel::Create(4, 3, 6, SmallOptions());
  ASSERT_TRUE(model.ok());
  CpaModel& m = model.value();
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t c = 0; c < 6; ++c) {
      const double x = static_cast<double>(t);
      const double y = static_cast<double>(c);
      m.theta_a(t, c) = 0.3 + 0.7 * x + 0.11 * y;
      m.theta_b(t, c) = 2.5 + 0.05 * x * y;
    }
  }
  m.RefreshThetaExpectations();
  ASSERT_EQ(m.elog_theta_delta_t.rows(), 6u);
  ASSERT_EQ(m.elog_theta_delta_t.cols(), 4u);
  for (std::size_t t = 0; t < 4; ++t) {
    double base = 0.0;
    for (std::size_t c = 0; c < 6; ++c) {
      const double a = m.theta_a(t, c);
      const double b = m.theta_b(t, c);
      const double on = Digamma(a) - Digamma(a + b);
      const double off = Digamma(b) - Digamma(a + b);
      base += off;
      EXPECT_EQ(m.elog_theta(t, c), on);
      EXPECT_EQ(m.elog_not_theta(t, c), off);
      EXPECT_EQ(m.elog_theta_delta_t(c, t), on - off);
      EXPECT_EQ(m.bernoulli_profile(t, c), a / (a + b));
    }
    EXPECT_EQ(m.elog_theta_base[t], base);
  }
}

TEST(CpaModelTest, ElogPsiCellsHoldEachCommunitysDirichletExpectation) {
  // Cell (t, c) of the label-major table holds E ln ψ_tmc for every m, each
  // with the bits `DirichletExpectedLog` gives λ_t's row m at c.
  CpaOptions options = SmallOptions();
  options.max_communities = 5;
  auto created = CpaModel::Create(4, 6, 7, options);
  ASSERT_TRUE(created.ok());
  CpaModel m = std::move(created).value();
  Rng rng(17);
  for (double& v : m.lambda.Data()) v = 0.05 + 4.0 * rng.NextDouble();
  m.RefreshExpectations(SweepScheduler());
  const std::size_t M = m.num_communities();
  const std::size_t C = m.num_labels();
  ASSERT_EQ(m.elog_psi.rows(), m.num_clusters());
  ASSERT_EQ(m.elog_psi.cols(), C * M);
  std::vector<double> lambda_row(C);
  std::vector<double> expected(C);
  for (std::size_t t = 0; t < m.num_clusters(); ++t) {
    for (std::size_t k = 0; k < M; ++k) {
      SCOPED_TRACE(testing::Message() << "t=" << t << " m=" << k);
      m.CopyLambdaRow(t, k, lambda_row);
      for (std::size_t c = 0; c < C; ++c) {
        ASSERT_EQ(lambda_row[c], m.lambda(t, c * M + k)) << "c=" << c;
      }
      DirichletExpectedLog(lambda_row, expected);
      for (std::size_t c = 0; c < C; ++c) {
        const double cell = m.elog_psi(t, c * M + k);
        ASSERT_EQ(std::memcmp(&cell, &expected[c], sizeof(double)), 0) << "c=" << c;
      }
    }
  }
}

TEST(CpaModelTest, CreateMatchesTheDenseInitialisationBitForBit) {
  // The dense initialisation `Create` ran before ϕ kept one generator state
  // per row: κ rows, then ϕ rows, each entry 1 + 0.1·u normalised, then
  // the λ jitter, all from one stream. Odd I, T and U.
  CpaOptions options = SmallOptions();
  options.max_clusters = 37;
  options.seed = 1234567;
  const std::size_t I = 23;
  const std::size_t U = 11;
  const std::size_t C = 7;
  auto model = CpaModel::Create(I, U, C, options);
  ASSERT_TRUE(model.ok());
  const CpaModel& m = model.value();
  const std::size_t M = m.num_communities();
  const std::size_t T = m.num_clusters();

  Rng rng(options.seed);
  const auto init_responsibilities = [&rng](Matrix& matrix) {
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      auto row = matrix.Row(r);
      for (double& v : row) v = 1.0 + 0.1 * rng.NextDouble();
      NormalizeInPlace(row);
    }
  };
  Matrix kappa(U, M);
  init_responsibilities(kappa);
  Matrix phi(I, T);
  init_responsibilities(phi);
  std::vector<Matrix> lambda(T, Matrix(M, C, options.lambda0));
  for (auto& bank : lambda) {
    for (double& v : bank.Data()) v += 0.01 * options.lambda0 * rng.NextDouble();
  }

  EXPECT_EQ(std::memcmp(m.kappa.Data().data(), kappa.Data().data(),
                        kappa.size() * sizeof(double)),
            0);
  for (std::size_t i = 0; i < I; ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(m.phi.IsInitial(i));
    const std::vector<double> row = m.phi.DenseRow(i);
    EXPECT_EQ(std::memcmp(row.data(), phi.Row(i).data(), T * sizeof(double)), 0);
  }
  std::vector<double> lambda_row(C);
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t k = 0; k < M; ++k) {
      m.CopyLambdaRow(t, k, lambda_row);
      EXPECT_EQ(
          std::memcmp(lambda_row.data(), lambda[t].Row(k).data(), C * sizeof(double)), 0)
          << "t=" << t << " m=" << k;
    }
  }
}

TEST(CpaModelTest, ShardedRefreshMatchesInlineBitForBit) {
  // T = 1031 clusters split over two or three shards (the refresh grain is
  // 512); every cached expectation must match the inline refresh's bits.
  CpaOptions options = SmallOptions();
  options.max_clusters = 1031;
  auto created = CpaModel::Create(5, 4, 7, options);
  ASSERT_TRUE(created.ok());
  CpaModel model = std::move(created).value();
  Rng rng(31);
  for (double& v : model.lambda.Data()) v = 0.05 + 4.0 * rng.NextDouble();
  for (double& v : model.theta_a.Data()) v = 0.05 + 4.0 * rng.NextDouble();
  for (double& v : model.theta_b.Data()) v = 0.05 + 4.0 * rng.NextDouble();
  for (double& v : model.upsilon.Data()) v = 0.5 + 3.0 * rng.NextDouble();

  const auto bits_equal = [](std::span<const double> a, std::span<const double> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  CpaModel inline_model = model;
  inline_model.RefreshExpectations(SweepScheduler());
  for (const std::size_t threads : {2, 3}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    CpaModel sharded = model;
    sharded.RefreshExpectations(SweepScheduler(&pool));
    EXPECT_TRUE(bits_equal(sharded.elog_pi, inline_model.elog_pi));
    EXPECT_TRUE(bits_equal(sharded.elog_tau, inline_model.elog_tau));
    EXPECT_TRUE(bits_equal(sharded.elog_psi.Data(), inline_model.elog_psi.Data()));
    EXPECT_TRUE(bits_equal(sharded.elog_theta.Data(), inline_model.elog_theta.Data()));
    EXPECT_TRUE(
        bits_equal(sharded.elog_not_theta.Data(), inline_model.elog_not_theta.Data()));
    EXPECT_TRUE(bits_equal(sharded.elog_theta_base, inline_model.elog_theta_base));
    EXPECT_TRUE(bits_equal(sharded.elog_theta_delta_t.Data(),
                           inline_model.elog_theta_delta_t.Data()));
    EXPECT_TRUE(bits_equal(sharded.bernoulli_profile.Data(),
                           inline_model.bernoulli_profile.Data()));
  }
}

TEST(CpaModelTest, RestoreRefusesLambdaEntriesThatAreNotPositive) {
  // λ holds Dirichlet parameters: a blob with one λ entry flipped to 0,
  // −0.0, a negative or NaN is refused, naming λ. The intact blob restores
  // λ bit for bit.
  auto created = CpaModel::Create(5, 4, 6, SmallOptions());
  ASSERT_TRUE(created.ok());
  CpaModel model = std::move(created).value();
  const std::size_t M = model.num_communities();
  const double sentinel = 7.3125;  // no other entry of the blob holds it
  model.lambda(2, 4 * M + 3) = sentinel;
  CheckpointWriter writer;
  model.SaveState(writer);
  const std::string blob = writer.bytes();
  CheckpointWriter sentinel_writer;
  sentinel_writer.WriteDouble(sentinel);
  const std::size_t offset = blob.find(sentinel_writer.bytes());
  ASSERT_NE(offset, std::string::npos);
  ASSERT_EQ(blob.find(sentinel_writer.bytes(), offset + 1), std::string::npos);

  CpaModel restored = CpaModel::Create(5, 4, 6, SmallOptions()).value();
  CheckpointReader intact(blob);
  ASSERT_TRUE(restored.RestoreState(intact).ok());
  EXPECT_EQ(std::memcmp(restored.lambda.Data().data(), model.lambda.Data().data(),
                        model.lambda.size() * sizeof(double)),
            0);

  for (const double bad : {0.0, -0.0, -1.0, std::nan("")}) {
    SCOPED_TRACE(bad);
    CheckpointWriter bad_writer;
    bad_writer.WriteDouble(bad);
    std::string flipped = blob;
    flipped.replace(offset, bad_writer.bytes().size(), bad_writer.bytes());
    CpaModel fresh = CpaModel::Create(5, 4, 6, SmallOptions()).value();
    CheckpointReader reader(flipped);
    const Status status = fresh.RestoreState(reader);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("lambda"), std::string::npos) << status.message();
  }
}

TEST(CpaModelTest, PosteriorMeansNormalised) {
  auto model = CpaModel::Create(4, 3, 3, SmallOptions());
  ASSERT_TRUE(model.ok());
  const auto psi = model.value().PsiMean(0, 0);
  EXPECT_NEAR(Sum(psi), 1.0, 1e-9);
  const auto phi = model.value().PhiMean(1);
  EXPECT_NEAR(Sum(phi), 1.0, 1e-9);
}

TEST(CpaModelTest, CommunityReliabilityWithinBounds) {
  auto model = CpaModel::Create(6, 5, 4, SmallOptions());
  ASSERT_TRUE(model.ok());
  const auto reliability = model.value().CommunityReliability();
  ASSERT_EQ(reliability.size(), 5u);
  for (double r : reliability) {
    EXPECT_GE(r, kReliabilityFloor);
    EXPECT_LE(r, 1.0);
  }
}

TEST(CpaModelTest, EffectiveCountsRespectThreshold) {
  auto model = CpaModel::Create(8, 6, 3, SmallOptions());
  ASSERT_TRUE(model.ok());
  // Near-uniform init: every component holds ~6/5 and ~8/4 mass.
  EXPECT_EQ(model.value().EffectiveCommunities(0.5), 5u);
  EXPECT_EQ(model.value().EffectiveClusters(0.5), 4u);
  EXPECT_EQ(model.value().EffectiveCommunities(100.0), 0u);
}

TEST(CpaModelTest, RejectsZeroLabels) {
  EXPECT_FALSE(CpaModel::Create(3, 3, 0, SmallOptions()).ok());
}

}  // namespace
}  // namespace cpa
