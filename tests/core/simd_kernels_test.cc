#include "core/sweep/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/phi_rows.h"
#include "core/sweep/answer_view.h"
#include "core/sweep/sweep_kernels.h"
#include "core/vi.h"
#include "simulation/dataset_factory.h"
#include "util/special_functions.h"
#include "util/string_utils.h"

namespace cpa::simd {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kFloorNats = 27.6;  // the sweep kernels' softmax floor

/// Bitwise equality — the contract is exactness, not tolerance, so -0.0
/// vs 0.0 and NaN payloads count as differences.
bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Log-weight-like values: a wide magnitude mix so the floored softmax
/// exercises both sides of the cut, with occasional exact -inf entries
/// (inactive clusters look like this in prediction rows).
std::vector<double> RandomRow(std::mt19937_64& rng, std::size_t n,
                              double inf_fraction = 0.1) {
  std::uniform_real_distribution<double> value(-60.0, 10.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<double> row(n);
  for (double& v : row) v = coin(rng) < inf_fraction ? kNegInf : value(rng);
  return row;
}

/// The size sweep: empty, one element, every remainder tail 0..7 of the
/// 4-lane width (and of the 16-wide accumulate unroll), plus block sizes
/// around the vector boundaries and realistic row/bank sizes.
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,   6,   7,   8,    9,
                              10, 11, 12, 13, 14, 15,  16,  17,  31,   32,
                              33, 63, 64, 65, 97, 256, 257, 1000, 4096, 4099};

/// Misaligned views of an over-allocated buffer: offsets 0..3 doubles from
/// the allocation base cover every 32-byte alignment class of the loads.
constexpr std::size_t kAlignOffsets[] = {0, 1, 2, 3};

class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Available()) {
      GTEST_SKIP() << "no AVX2 on this machine; scalar-only build path";
    }
  }
  const Kernels& scalar_ = KernelsFor(Level::kScalar);
  const Kernels& avx2_ = KernelsFor(Level::kAvx2);
  std::mt19937_64 rng_{20180417};
};

TEST_F(SimdKernelsTest, AccumulateExactlyMatchesScalar) {
  for (std::size_t n : kSizes) {
    for (std::size_t offset : kAlignOffsets) {
      const std::vector<double> from_src = RandomRow(rng_, n + offset, 0.0);
      const std::vector<double> into_src = RandomRow(rng_, n + offset, 0.0);
      std::vector<double> a = into_src;
      std::vector<double> b = into_src;
      scalar_.accumulate(a.data() + offset, from_src.data() + offset, n);
      avx2_.accumulate(b.data() + offset, from_src.data() + offset, n);
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(BitEqual(a[i], b[i])) << "n=" << n << " offset=" << offset
                                          << " i=" << i;
      }
    }
  }
}

TEST_F(SimdKernelsTest, AxpyExactlyMatchesScalar) {
  for (double scale : {0.5, -1.75, 3.141592653589793e-7, 1.0e12}) {
    for (std::size_t n : kSizes) {
      for (std::size_t offset : kAlignOffsets) {
        const std::vector<double> in = RandomRow(rng_, n + offset, 0.0);
        const std::vector<double> out_src = RandomRow(rng_, n + offset, 0.0);
        std::vector<double> a = out_src;
        std::vector<double> b = out_src;
        scalar_.axpy(scale, in.data() + offset, a.data() + offset, n);
        avx2_.axpy(scale, in.data() + offset, b.data() + offset, n);
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_TRUE(BitEqual(a[i], b[i]))
              << "scale=" << scale << " n=" << n << " offset=" << offset;
        }
      }
    }
  }
}

TEST_F(SimdKernelsTest, SumDotMaxExactlyMatchScalar) {
  for (std::size_t n : kSizes) {
    for (std::size_t offset : kAlignOffsets) {
      const std::vector<double> a = RandomRow(rng_, n + offset, 0.0);
      const std::vector<double> b = RandomRow(rng_, n + offset, 0.0);
      EXPECT_TRUE(BitEqual(scalar_.sum(a.data() + offset, n),
                           avx2_.sum(a.data() + offset, n)))
          << "sum n=" << n << " offset=" << offset;
      EXPECT_TRUE(BitEqual(
          scalar_.dot(a.data() + offset, b.data() + offset, n),
          avx2_.dot(a.data() + offset, b.data() + offset, n)))
          << "dot n=" << n << " offset=" << offset;
      const std::vector<double> m = RandomRow(rng_, n + offset, 0.2);
      EXPECT_TRUE(BitEqual(scalar_.max_value(m.data() + offset, n),
                           avx2_.max_value(m.data() + offset, n)))
          << "max n=" << n << " offset=" << offset;
    }
  }
}

TEST_F(SimdKernelsTest, LogSumExpExactlyMatchesScalar) {
  for (std::size_t n : kSizes) {
    for (std::size_t offset : kAlignOffsets) {
      const std::vector<double> v = RandomRow(rng_, n + offset);
      EXPECT_TRUE(BitEqual(scalar_.log_sum_exp(v.data() + offset, n),
                           avx2_.log_sum_exp(v.data() + offset, n)))
          << "n=" << n << " offset=" << offset;
    }
  }
}

TEST_F(SimdKernelsTest, SoftmaxExactlyMatchesScalar) {
  for (std::size_t n : kSizes) {
    for (std::size_t offset : kAlignOffsets) {
      const std::vector<double> src = RandomRow(rng_, n + offset);
      std::vector<double> a = src;
      std::vector<double> b = src;
      const double la = scalar_.softmax(a.data() + offset, n);
      const double lb = avx2_.softmax(b.data() + offset, n);
      EXPECT_TRUE(BitEqual(la, lb)) << "n=" << n << " offset=" << offset;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(BitEqual(a[i], b[i])) << "n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST_F(SimdKernelsTest, SoftmaxFlooredExactlyMatchesScalar) {
  for (std::size_t n : kSizes) {
    for (std::size_t offset : kAlignOffsets) {
      const std::vector<double> src = RandomRow(rng_, n + offset);
      std::vector<double> a = src;
      std::vector<double> b = src;
      const double la = scalar_.softmax_floored(a.data() + offset, n, kFloorNats);
      const double lb = avx2_.softmax_floored(b.data() + offset, n, kFloorNats);
      EXPECT_TRUE(BitEqual(la, lb)) << "n=" << n << " offset=" << offset;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(BitEqual(a[i], b[i])) << "n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST_F(SimdKernelsTest, SoftmaxDegenerateRowsMatchScalar) {
  // All--inf rows take the uniform-fill fallback at every level.
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
    std::vector<double> a(n, kNegInf);
    std::vector<double> b(n, kNegInf);
    EXPECT_TRUE(BitEqual(scalar_.softmax(a.data(), n), avx2_.softmax(b.data(), n)));
    EXPECT_EQ(a, b);
    std::vector<double> c(n, kNegInf);
    std::vector<double> d(n, kNegInf);
    EXPECT_TRUE(BitEqual(scalar_.softmax_floored(c.data(), n, kFloorNats),
                         avx2_.softmax_floored(d.data(), n, kFloorNats)));
    EXPECT_EQ(c, d);
  }
}

/// A score row's inputs for `evidence_scores`: `init` plus `terms` rows
/// with their scales, each `n + offset` long.
struct EvidenceInputs {
  std::vector<double> init;
  std::vector<std::vector<double>> rows;
  std::vector<double> scales;
  std::vector<const double*> row_ptrs;  ///< rows[k].data() + offset
};

EvidenceInputs MakeEvidenceInputs(std::mt19937_64& rng, std::size_t n, std::size_t offset,
                                  std::size_t terms, double inf_fraction) {
  std::uniform_real_distribution<double> scale(0.0, 30.0);
  EvidenceInputs in;
  in.init = RandomRow(rng, n + offset, inf_fraction);
  for (std::size_t k = 0; k < terms; ++k) {
    in.rows.push_back(RandomRow(rng, n + offset, 0.0));
    in.scales.push_back(scale(rng));
  }
  for (const auto& row : in.rows) in.row_ptrs.push_back(row.data() + offset);
  return in;
}

/// The unfused chain the fused kernels replace: `init` copied, then one
/// `axpy` per term, at the given level.
std::vector<double> AxpyChain(const Kernels& kernels, const EvidenceInputs& in,
                              std::size_t n, std::size_t offset) {
  std::vector<double> out(in.init.begin() + static_cast<std::ptrdiff_t>(offset),
                          in.init.begin() + static_cast<std::ptrdiff_t>(offset + n));
  for (std::size_t k = 0; k < in.rows.size(); ++k) {
    kernels.axpy(in.scales[k], in.row_ptrs[k], out.data(), n);
  }
  return out;
}

TEST_F(SimdKernelsTest, EvidenceScoresExactlyMatchScalarAndTheAxpyChain) {
  for (std::size_t n : kSizes) {
    for (std::size_t offset : kAlignOffsets) {
      for (std::size_t terms : {0u, 1u, 3u, 11u}) {
        const EvidenceInputs in = MakeEvidenceInputs(rng_, n, offset, terms, 0.05);
        std::vector<double> a(n + 1, -1.0);
        std::vector<double> b(n + offset + 1, -1.0);
        const double max_a = scalar_.evidence_scores(in.init.data() + offset,
                                                     in.row_ptrs.data(), in.scales.data(),
                                                     terms, a.data(), n);
        const double max_b = avx2_.evidence_scores(in.init.data() + offset,
                                                   in.row_ptrs.data(), in.scales.data(),
                                                   terms, b.data() + offset, n);
        EXPECT_TRUE(BitEqual(max_a, max_b)) << "n=" << n << " terms=" << terms;
        const std::vector<double> chain = AxpyChain(scalar_, in, n, offset);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(BitEqual(a[i], b[offset + i])) << "n=" << n << " i=" << i;
          ASSERT_TRUE(BitEqual(a[i], chain[i])) << "n=" << n << " i=" << i;
        }
        EXPECT_TRUE(BitEqual(a[n], -1.0));  // nothing written past the row
        EXPECT_TRUE(BitEqual(b[offset + n], -1.0));
        EXPECT_TRUE(BitEqual(max_a, scalar_.max_value(chain.data(), n)))
            << "n=" << n << " terms=" << terms;
      }
    }
  }
}

TEST_F(SimdKernelsTest, EvidenceScoresMaxSkipsNanAndKeepsInfinities) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t n : {1u, 3u, 4u, 7u, 8u, 13u, 64u}) {
    // Every lane position of the special value, main loop and tail alike.
    for (std::size_t at = 0; at < n; ++at) {
      for (const double special : {kNan, kInf, kNegInf}) {
        std::vector<double> init(n, kNegInf);
        if (special != kNegInf) {
          init = RandomRow(rng_, n, 0.0);
        }
        init[at] = special;
        std::vector<double> a(n);
        std::vector<double> b(n);
        const double max_a =
            scalar_.evidence_scores(init.data(), nullptr, nullptr, 0, a.data(), n);
        const double max_b =
            avx2_.evidence_scores(init.data(), nullptr, nullptr, 0, b.data(), n);
        ASSERT_TRUE(BitEqual(max_a, max_b)) << "n=" << n << " at=" << at;
        ASSERT_TRUE(BitEqual(max_a, scalar_.max_value(init.data(), n)));
        if (special == kInf) {
          EXPECT_EQ(max_a, kInf);
        } else if (special == kNegInf) {
          EXPECT_EQ(max_a, kNegInf);  // an all -inf row
        } else {
          EXPECT_FALSE(std::isnan(max_a));
        }
        for (std::size_t i = 0; i < n; ++i) ASSERT_TRUE(BitEqual(a[i], b[i]));
      }
    }
  }
}

/// The survivors of `softmax_floored` on `row` (its dense output's
/// nonzeros, ascending).
void DenseFlooredPairs(const Kernels& kernels, std::vector<double> row,
                       std::vector<std::uint32_t>& indices,
                       std::vector<double>& weights) {
  kernels.softmax_floored(row.data(), row.size(), kFloorNats);
  indices.clear();
  weights.clear();
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] == 0.0) continue;
    indices.push_back(static_cast<std::uint32_t>(i));
    weights.push_back(row[i]);
  }
}

/// Pins `softmax_floored_pairs` of `row` at both levels against each other
/// and against the dense floored softmax's nonzeros.
void ExpectPairsMatch(const Kernels& scalar, const Kernels& avx2,
                      const std::vector<double>& row, std::size_t offset,
                      const std::string& label) {
  const std::size_t n = row.size() - offset;
  const double max = scalar.max_value(row.data() + offset, n);
  ASSERT_TRUE(std::isfinite(max)) << label;
  std::vector<std::uint32_t> ia(n + 1, 7u);
  std::vector<double> wa(n + 1, -1.0);
  std::vector<std::uint32_t> ib(n + 1, 7u);
  std::vector<double> wb(n + 1, -1.0);
  const std::size_t ca = scalar.softmax_floored_pairs(row.data() + offset, n, max,
                                                      kFloorNats, ia.data(), wa.data());
  const std::size_t cb = avx2.softmax_floored_pairs(row.data() + offset, n, max,
                                                    kFloorNats, ib.data(), wb.data());
  ASSERT_EQ(ca, cb) << label;
  std::vector<std::uint32_t> dense_indices;
  std::vector<double> dense_weights;
  const std::vector<double> window(row.begin() + static_cast<std::ptrdiff_t>(offset),
                                     row.end());
  DenseFlooredPairs(scalar, window, dense_indices, dense_weights);
  ASSERT_EQ(ca, dense_indices.size()) << label;
  for (std::size_t k = 0; k < ca; ++k) {
    ASSERT_EQ(ia[k], ib[k]) << label << " k=" << k;
    ASSERT_TRUE(BitEqual(wa[k], wb[k])) << label << " k=" << k;
    ASSERT_EQ(ia[k], dense_indices[k]) << label << " k=" << k;
    ASSERT_TRUE(BitEqual(wa[k], dense_weights[k])) << label << " k=" << k;
  }
  EXPECT_EQ(ia[ca], 7u) << label;  // nothing written past the survivors
  EXPECT_EQ(ib[cb], 7u) << label;
}

TEST_F(SimdKernelsTest, SoftmaxFlooredPairsExactlyMatchScalarAndTheDenseKernel) {
  for (std::size_t n : kSizes) {
    if (n == 0) continue;
    for (std::size_t offset : kAlignOffsets) {
      std::vector<double> row = RandomRow(rng_, n + offset);
      row[offset + n / 2] = 5.0;  // a finite max
      const std::string where = StrFormat("n=%zu offset=%zu", n, offset);
      ExpectPairsMatch(scalar_, avx2_, row, offset, "random " + where);
      // Every 4-block floored but the max's: with the max in the tail (or
      // the last block), the main loop emits nothing.
      std::vector<double> peaked(n + offset, -40.0);
      peaked[offset + n - 1] = 0.0;
      ExpectPairsMatch(scalar_, avx2_, peaked, offset, "peaked " + where);
      // Survivors in every lane of every block, NaN and -inf entries among
      // them (NaN fails the floor comparison and is dropped).
      std::vector<double> flat = RandomRow(rng_, n + offset, 0.0);
      for (double& v : flat) v = -std::fmod(std::abs(v), 20.0);
      if (n > 1) flat[offset + 1] = std::numeric_limits<double>::quiet_NaN();
      if (n > 2) flat[offset + 2] = kNegInf;
      ExpectPairsMatch(scalar_, avx2_, flat, offset, "flat " + where);
    }
  }
}

// The end-to-end bar: a full offline fit is bit-identical with the scalar
// and AVX2 tables (the CPA_SIMD=off CI leg runs the same comparison through
// the environment escape hatch).
TEST_F(SimdKernelsTest, AddJitteredRows4ExactlyMatchesRowByRowReference) {
  // Four generators at random states; each row's values come from its own
  // stream, and every element receives rows 0..3 in order — the reference
  // adds them one whole row at a time.
  for (std::size_t n : kSizes) {
    for (std::size_t offset : kAlignOffsets) {
      std::uint64_t states[16];
      for (std::uint64_t& word : states) word = rng_();
      double sums[4];
      for (double& sum : sums) sum = 1.0 + static_cast<double>(rng_() % 4096);
      const std::vector<double> into_src = RandomRow(rng_, n + offset, 0.0);
      std::vector<double> expected = into_src;
      for (std::size_t k = 0; k < 4; ++k) {
        Rng row = Rng::FromState(
            {states[4 * k], states[4 * k + 1], states[4 * k + 2], states[4 * k + 3]});
        for (std::size_t i = 0; i < n; ++i) {
          expected[offset + i] += JitteredDraw(row) / sums[k];
        }
      }
      std::vector<double> a = into_src;
      std::vector<double> b = into_src;
      scalar_.add_jittered_rows4(states, sums, a.data() + offset, n);
      avx2_.add_jittered_rows4(states, sums, b.data() + offset, n);
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(BitEqual(a[i], expected[i])) << "n=" << n << " i=" << i;
        ASSERT_TRUE(BitEqual(b[i], expected[i])) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST_F(SimdKernelsTest, FitCpaBitIdenticalScalarVsAvx2) {
  FactoryOptions options;
  options.scale = 0.05;
  auto dataset = MakePaperDataset(PaperDatasetId::kMovie, options);
  ASSERT_TRUE(dataset.ok());
  const Dataset& d = dataset.value();
  CpaOptions cpa_options = CpaOptions::Recommended(d.num_items(), d.num_labels);
  cpa_options.max_iterations = 6;

  const Level original = ActiveLevel();
  SetLevelForTesting(Level::kScalar);
  const auto scalar_fit = FitCpa(d.answers, d.num_labels, cpa_options);
  SetLevelForTesting(Level::kAvx2);
  const auto avx2_fit = FitCpa(d.answers, d.num_labels, cpa_options);
  SetLevelForTesting(original);
  ASSERT_TRUE(scalar_fit.ok());
  ASSERT_TRUE(avx2_fit.ok());

  const CpaModel& a = scalar_fit.value();
  const CpaModel& b = avx2_fit.value();
  EXPECT_DOUBLE_EQ(a.kappa.MaxAbsDiff(b.kappa), 0.0);
  EXPECT_DOUBLE_EQ(MaxAbsDiff(a.phi, b.phi), 0.0);
  EXPECT_DOUBLE_EQ(a.zeta.MaxAbsDiff(b.zeta), 0.0);
  EXPECT_DOUBLE_EQ(a.theta_a.MaxAbsDiff(b.theta_a), 0.0);
  EXPECT_DOUBLE_EQ(a.theta_b.MaxAbsDiff(b.theta_b), 0.0);
  EXPECT_DOUBLE_EQ(a.lambda.MaxAbsDiff(b.lambda), 0.0);
}

/// ϕ row `i` of `a` and of `b` are stored alike (form, bits, runs).
void ExpectSamePhiRow(const PhiRows& a, const PhiRows& b, std::size_t i) {
  ASSERT_EQ(a.IsInitial(i), b.IsInitial(i)) << "row " << i;
  const std::vector<double> da = a.DenseRow(i);
  const std::vector<double> db = b.DenseRow(i);
  for (std::size_t t = 0; t < da.size(); ++t) {
    ASSERT_TRUE(BitEqual(da[t], db[t])) << "row " << i << " t=" << t;
  }
  const PhiRows::Entries ra = a.AtLeast(i, kHeavyWeight);
  const PhiRows::Entries rb = b.AtLeast(i, kHeavyWeight);
  ASSERT_EQ(ra.clusters.size(), rb.clusters.size()) << "row " << i;
  for (std::size_t k = 0; k < ra.clusters.size(); ++k) {
    ASSERT_EQ(ra.clusters[k], rb.clusters[k]) << "row " << i;
    ASSERT_TRUE(BitEqual(ra.weights[k], rb.weights[k])) << "row " << i;
  }
}

/// The evidence-only ϕ row write as it was before the fused kernels: E ln τ
/// copied, the `Axpy` chain, `SoftmaxInPlace(floor)`, then `Assign`.
void UnfusedEvidenceRowWrite(CpaModel& model, ItemId i) {
  std::vector<double> scores(model.elog_tau);
  if (!model.y_evidence[i].empty()) {
    const double evidence_scale = model.y_evidence_weight[i];
    Axpy(evidence_scale, model.elog_theta_base, scores);
    for (const auto& [c, weight] : model.y_evidence[i]) {
      Axpy(evidence_scale * weight, model.elog_theta_delta_t.Row(c), scores);
    }
  }
  SoftmaxInPlace(scores, sweep::kSoftmaxFloorNats);
  model.phi.Assign(i, scores);
}

// The fused ϕ row write against the unfused chain, at both levels, on a
// model whose rows come out sparse (light runs included), kept dense
// (near-flat scores), or empty of evidence, and on E ln τ caches with a
// +inf, NaN or all -inf entries (the dense uniform fallback).
TEST(FusedPhiRowTest, EvidenceRowWriteMatchesTheUnfusedChainAtEveryLevel) {
  CpaOptions options;
  options.max_clusters = 67;  // a 3-wide tail after the 4-blocks
  options.max_communities = 3;
  const std::size_t I = 60;
  const std::size_t C = 6;
  auto created = CpaModel::Create(I, 4, C, options);
  ASSERT_TRUE(created.ok());
  CpaModel model = std::move(created).value();
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (double& v : model.theta_a.Data()) v = 0.05 + 5.0 * unit(rng);
  for (double& v : model.theta_b.Data()) v = 0.05 + 5.0 * unit(rng);
  // Sticks with a large second parameter keep E ln τ within a few nats
  // across all clusters, so weak evidence leaves most of them alive.
  for (std::size_t t = 0; t < model.upsilon.rows(); ++t) {
    model.upsilon(t, 0) = 1.0 + unit(rng);
    model.upsilon(t, 1) = 20.0 + 30.0 * unit(rng);
  }
  model.RefreshExpectations(SweepScheduler());
  for (ItemId i = 0; i < I; ++i) {
    if (i % 5 == 0) continue;  // no evidence: the row is E ln τ alone
    for (LabelId c = 0; c < C; ++c) {
      if (unit(rng) < 0.4) model.y_evidence[i].emplace_back(c, unit(rng));
    }
    // Every third item gets a weak multiplicity, so its scores stay near
    // E ln τ's and most clusters survive the floor.
    model.y_evidence_weight[i] = i % 3 == 0 ? 1e-3 * unit(rng) : 1.0 + 20.0 * unit(rng);
  }
  CpaModel plus_inf = model;
  plus_inf.elog_tau[13] = std::numeric_limits<double>::infinity();
  CpaModel with_nan = model;
  with_nan.elog_tau[2] = std::numeric_limits<double>::quiet_NaN();
  with_nan.elog_tau[64] = std::numeric_limits<double>::quiet_NaN();
  CpaModel all_neg_inf = model;
  std::fill(all_neg_inf.elog_tau.begin(), all_neg_inf.elog_tau.end(), kNegInf);

  const Level original = ActiveLevel();
  for (Level level : {Level::kScalar, Level::kAvx2}) {
    SetLevelForTesting(level);
    std::size_t dense_rows = 0;
    std::size_t light_rows = 0;
    for (const CpaModel* base : {&model, &plus_inf, &with_nan, &all_neg_inf}) {
      CpaModel fused = *base;
      CpaModel unfused = *base;
      // Twice over, so rows are rewritten from every earlier form.
      for (int pass = 0; pass < 2; ++pass) {
        for (ItemId i = 0; i < I; ++i) {
          sweep::UpdateItemResponsibilityFromEvidence(fused, i);
          UnfusedEvidenceRowWrite(unfused, i);
          ExpectSamePhiRow(fused.phi, unfused.phi, i);
        }
      }
      EXPECT_EQ(fused.phi.HeapBytes(), unfused.phi.HeapBytes());
      for (ItemId i = 0; i < I && base == &model; ++i) {
        const std::size_t nonzeros =
            fused.phi.AtLeast(i, std::numeric_limits<double>::min()).clusters.size();
        dense_rows += 3 * nonzeros > 2 * fused.num_clusters();
        light_rows += nonzeros > fused.phi.AtLeast(i, kHeavyWeight).clusters.size();
      }
    }
    // Both row forms and the light run were exercised.
    EXPECT_GT(dense_rows, 0u) << LevelName(level);
    EXPECT_GT(light_rows, 0u) << LevelName(level);
    EXPECT_LT(dense_rows, I) << LevelName(level);
  }
  SetLevelForTesting(original);
}

// The active-only softmax of prediction against the dense dispatched
// softmax, at both levels: −inf holes at every lane position, listed ids
// that are themselves −inf, widths that are not multiples of 4, and the
// degenerate rows that take the uniform fallback.
TEST(SoftmaxActiveTest, BitIdenticalToDenseSoftmaxAtEveryLevel) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> value(-40.0, 5.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const Level original = ActiveLevel();
  for (Level level : {Level::kScalar, Level::kAvx2}) {
    SetLevelForTesting(level);
    for (std::size_t n : {1u, 2u, 3u, 5u, 6u, 7u, 9u, 13u, 31u, 33u, 97u, 1023u}) {
      // hole_lane 0..3: every id ≡ hole_lane (mod 4) is a hole; 4: random
      // holes; 5: a single live id; 6: all holes; 7: a NaN among the ids.
      for (int pattern = 0; pattern < 8; ++pattern) {
        std::vector<double> row(n);
        std::vector<std::size_t> active;
        for (std::size_t t = 0; t < n; ++t) {
          bool hole = false;
          if (pattern < 4) hole = t % 4 == static_cast<std::size_t>(pattern);
          if (pattern == 4) hole = coin(rng) < 0.6;
          if (pattern == 5) hole = t != n / 2;
          if (pattern == 6) hole = true;
          row[t] = kNegInf;
          if (hole) continue;
          active.push_back(t);
          // A listed id may still carry −inf (zero answer likelihood).
          if (coin(rng) >= 0.1) row[t] = value(rng);
        }
        if (pattern == 7 && !active.empty()) {
          row[active[active.size() / 2]] = std::numeric_limits<double>::quiet_NaN();
        }
        std::vector<double> dense = row;
        const double dense_norm = SoftmaxInPlace(dense);
        std::vector<double> out(active.size(), -1.0);
        const double active_norm = SoftmaxActive(row, active, out);
        EXPECT_TRUE(BitEqual(dense_norm, active_norm))
            << "level=" << LevelName(level) << " n=" << n << " pattern=" << pattern;
        for (std::size_t k = 0; k < active.size(); ++k) {
          ASSERT_TRUE(BitEqual(out[k], dense[active[k]]))
              << "level=" << LevelName(level) << " n=" << n << " pattern=" << pattern
              << " id=" << active[k];
        }
      }
    }
  }
  SetLevelForTesting(original);
}

// ---------------------------------------------------------------------------
// Community-vectorised Eq. 2 and Eq. 6 (simd.h)
// ---------------------------------------------------------------------------

/// Community counts around the 4- and 8-wide blocks and their tails.
constexpr std::size_t kCommunityCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 16};

/// One answer's inputs at the label-major layout: an activity run over
/// `kClusters` clusters and a label list over `kLabels` labels.
constexpr std::size_t kClusters = 9;
constexpr std::size_t kLabels = 6;

/// The activity runs the kernels see: none, one, a few and every cluster,
/// with weights that are ordinary, zero, subnormal, or exactly `kSkipMass`.
struct ClusterRun {
  std::vector<std::uint32_t> clusters;
  std::vector<double> weights;
};

std::vector<ClusterRun> ClusterRuns(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double special[] = {0.0, std::numeric_limits<double>::denorm_min(), 3.5e-310,
                            sweep::kSkipMass, 1.0};
  std::vector<ClusterRun> runs;
  runs.push_back({});
  runs.push_back({{4}, {0.73}});
  ClusterRun specials;
  for (std::size_t k = 0; k < std::size(special); ++k) {
    specials.clusters.push_back(static_cast<std::uint32_t>(k + 1));
    specials.weights.push_back(special[k]);
  }
  runs.push_back(specials);
  ClusterRun full;
  for (std::uint32_t t = 0; t < kClusters; ++t) {
    full.clusters.push_back(t);
    full.weights.push_back(unit(rng));
  }
  runs.push_back(full);
  return runs;
}

/// The label lists: empty, a single label, a scattered subset, all labels.
std::vector<std::vector<std::uint32_t>> LabelLists() {
  std::vector<std::uint32_t> all(kLabels);
  for (std::uint32_t c = 0; c < kLabels; ++c) all[c] = c;
  return {{}, {3}, {0, 2, 5}, all};
}

TEST_F(SimdKernelsTest, AnswerCommunityScoresExactlyMatchScalar) {
  for (std::size_t M : kCommunityCounts) {
    const std::size_t stride = kLabels * M;
    const std::vector<double> cells = RandomRow(rng_, kClusters * stride, 0.0);
    for (const ClusterRun& run : ClusterRuns(rng_)) {
      for (const auto& labels : LabelLists()) {
        SCOPED_TRACE(StrFormat("M=%zu clusters=%zu labels=%zu", M, run.clusters.size(),
                               labels.size()));
        const std::vector<double> start = RandomRow(rng_, M, 0.0);
        std::vector<double> a = start;
        std::vector<double> b = start;
        scalar_.answer_community_scores(cells.data(), stride, run.clusters.data(),
                                        run.weights.data(), run.clusters.size(),
                                        labels.data(), labels.size(), a.data(), M);
        avx2_.answer_community_scores(cells.data(), stride, run.clusters.data(),
                                      run.weights.data(), run.clusters.size(),
                                      labels.data(), labels.size(), b.data(), M);
        for (std::size_t m = 0; m < M; ++m) {
          ASSERT_TRUE(BitEqual(a[m], b[m])) << "m=" << m;
        }
      }
    }
  }
}

TEST_F(SimdKernelsTest, AnswerLambdaAddExactlyMatchesScalarAndTheSkippingLoop) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t M : kCommunityCounts) {
    const std::size_t stride = kLabels * M;
    // κ rows as a fit leaves them: mostly one-hot, with weights at, just
    // below and far below the skip mass, a subnormal and a zero.
    std::vector<double> kappa(M);
    for (double& v : kappa) v = unit(rng_) < 0.5 ? unit(rng_) : 1e-12 * unit(rng_);
    kappa[0] = 1.0;
    if (M > 1) kappa[1] = sweep::kSkipMass;
    if (M > 2) kappa[2] = std::nextafter(sweep::kSkipMass, 0.0);
    if (M > 3) kappa[3] = std::numeric_limits<double>::denorm_min();
    if (M > 4) kappa[4] = 0.0;
    // Partials start at +0.0 and take every answer in turn.
    std::vector<double> a(kClusters * stride, 0.0);
    std::vector<double> b = a;
    std::vector<Matrix> banks(kClusters, Matrix(M, kLabels, 0.0));
    for (int answer = 0; answer < 3; ++answer) {
      for (const ClusterRun& run : ClusterRuns(rng_)) {
        for (const auto& labels : LabelLists()) {
          scalar_.answer_lambda_add(a.data(), stride, run.clusters.data(),
                                    run.weights.data(), run.clusters.size(),
                                    labels.data(), labels.size(), kappa.data(),
                                    sweep::kSkipMass, M);
          avx2_.answer_lambda_add(b.data(), stride, run.clusters.data(),
                                  run.weights.data(), run.clusters.size(),
                                  labels.data(), labels.size(), kappa.data(),
                                  sweep::kSkipMass, M);
          // The M × C bank loop the kernel replaces.
          for (std::size_t k = 0; k < run.clusters.size(); ++k) {
            Matrix& bank = banks[run.clusters[k]];
            for (std::size_t m = 0; m < M; ++m) {
              const double weight = run.weights[k] * kappa[m];
              if (weight < sweep::kSkipMass) continue;
              for (std::uint32_t c : labels) bank(m, c) += weight;
            }
          }
        }
      }
    }
    for (std::size_t t = 0; t < kClusters; ++t) {
      for (std::size_t c = 0; c < kLabels; ++c) {
        for (std::size_t m = 0; m < M; ++m) {
          const std::size_t cell = t * stride + c * M + m;
          ASSERT_TRUE(BitEqual(a[cell], b[cell])) << "M=" << M << " cell=" << cell;
          ASSERT_TRUE(BitEqual(a[cell], banks[t](m, c))) << "M=" << M << " cell=" << cell;
        }
      }
    }
  }
}

// The batch λ step of the online learner: the kernel adds into λ itself,
// whose cells start at λ0 + jitter (never +0.0 or −0.0), with the learner's
// 1e-10 cut. Scalar and AVX2 must leave every cell with the bits of the
// M × C bank loop the learner ran before.
TEST_F(SimdKernelsTest, AnswerLambdaAddOntoPriorCellsMatchesTheBankLoop) {
  constexpr double kBatchSkip = 1e-10;
  constexpr double kLambda0 = 0.1;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t M : kCommunityCounts) {
    const std::size_t stride = kLabels * M;
    // Weights at, just below and far below the cut, a subnormal and a zero.
    std::vector<double> kappa(M);
    for (double& v : kappa) v = unit(rng_) < 0.5 ? unit(rng_) : 1e-12 * unit(rng_);
    kappa[0] = 1.0;
    if (M > 1) kappa[1] = kBatchSkip;
    if (M > 2) kappa[2] = std::nextafter(kBatchSkip, 0.0);
    if (M > 3) kappa[3] = std::numeric_limits<double>::denorm_min();
    if (M > 4) kappa[4] = 0.0;
    std::vector<Matrix> banks(kClusters, Matrix(M, kLabels));
    std::vector<double> a(kClusters * stride);
    for (std::size_t t = 0; t < kClusters; ++t) {
      for (std::size_t m = 0; m < M; ++m) {
        for (std::size_t c = 0; c < kLabels; ++c) {
          const double cell = kLambda0 + 0.01 * kLambda0 * unit(rng_);
          banks[t](m, c) = cell;
          a[t * stride + c * M + m] = cell;
        }
      }
    }
    std::vector<double> b = a;
    for (int answer = 0; answer < 3; ++answer) {
      for (const ClusterRun& run : ClusterRuns(rng_)) {
        for (const auto& labels : LabelLists()) {
          scalar_.answer_lambda_add(a.data(), stride, run.clusters.data(),
                                    run.weights.data(), run.clusters.size(),
                                    labels.data(), labels.size(), kappa.data(),
                                    kBatchSkip, M);
          avx2_.answer_lambda_add(b.data(), stride, run.clusters.data(),
                                  run.weights.data(), run.clusters.size(),
                                  labels.data(), labels.size(), kappa.data(), kBatchSkip,
                                  M);
          for (std::size_t k = 0; k < run.clusters.size(); ++k) {
            Matrix& bank = banks[run.clusters[k]];
            for (std::size_t m = 0; m < M; ++m) {
              const double weight = run.weights[k] * kappa[m];
              if (weight < kBatchSkip) continue;
              for (std::uint32_t c : labels) bank(m, c) += weight;
            }
          }
        }
      }
    }
    for (std::size_t t = 0; t < kClusters; ++t) {
      for (std::size_t c = 0; c < kLabels; ++c) {
        for (std::size_t m = 0; m < M; ++m) {
          const std::size_t cell = t * stride + c * M + m;
          ASSERT_TRUE(BitEqual(a[cell], b[cell])) << "M=" << M << " cell=" << cell;
          ASSERT_TRUE(BitEqual(a[cell], banks[t](m, c))) << "M=" << M << " cell=" << cell;
        }
      }
    }
  }
}

/// Eq. 2's κ row as it was computed before the label-major table: one M × C
/// matrix of E ln ψ per cluster, and the per-community loop over them.
std::vector<double> PerCommunityKappaRow(const CpaModel& model, const AnswerView& view,
                                         WorkerId u) {
  const std::size_t M = model.num_communities();
  std::vector<Matrix> elog_psi(model.num_clusters(), Matrix(M, model.num_labels()));
  std::vector<double> lambda_row(model.num_labels());
  for (std::size_t t = 0; t < model.num_clusters(); ++t) {
    for (std::size_t m = 0; m < M; ++m) {
      model.CopyLambdaRow(t, m, lambda_row);
      DirichletExpectedLog(lambda_row, elog_psi[t].Row(m));
    }
  }
  const sweep::ClusterActivity activity{&model.phi, sweep::kSkipMass};
  std::vector<double> scores(M);
  for (std::size_t m = 0; m < M; ++m) scores[m] = model.elog_pi[m];
  for (std::uint32_t index : view.AnswersOfWorker(u)) {
    const auto labels = view.labels(index);
    activity.ForEach(view.item(index), [&](std::size_t t, double phi_weight) {
      for (std::size_t m = 0; m < M; ++m) {
        const auto psi_row = elog_psi[t].Row(m);
        double loglik = 0.0;
        for (LabelId c : labels) loglik += psi_row[c];
        scores[m] += phi_weight * loglik;
      }
    });
  }
  SoftmaxInPlace(scores, sweep::kSoftmaxFloorNats);
  return scores;
}

// Every κ row of a fitted model written through the dispatched kernel, at
// both levels, against the per-community loop, for M with and without a
// scalar tail.
TEST(CommunityVectorisedEq2Test, KappaRowsMatchThePerCommunityLoopAtEveryLevel) {
  FactoryOptions factory;
  factory.scale = 0.05;
  auto dataset = MakePaperDataset(PaperDatasetId::kMovie, factory);
  ASSERT_TRUE(dataset.ok());
  const Dataset& d = dataset.value();
  const AnswerView view(d.answers);
  const Level original = ActiveLevel();
  for (std::size_t M : {5, 8}) {
    SCOPED_TRACE(M);
    CpaOptions options = CpaOptions::Recommended(d.num_items(), d.num_labels);
    options.max_communities = M;
    options.max_iterations = 3;
    auto fitted = FitCpa(d.answers, d.num_labels, options);
    ASSERT_TRUE(fitted.ok());
    const CpaModel& model = fitted.value();
    for (Level level : {Level::kScalar, Level::kAvx2}) {
      SCOPED_TRACE(LevelName(level));
      SetLevelForTesting(level);
      CpaModel updated = model;
      const sweep::ClusterActivity activity{&updated.phi, sweep::kSkipMass};
      for (WorkerId u = 0; u < model.num_workers(); ++u) {
        sweep::UpdateWorkerResponsibility(updated, view, u, view.AnswersOfWorker(u),
                                          &activity);
        const std::vector<double> expected = PerCommunityKappaRow(model, view, u);
        const auto row = updated.kappa.Row(u);
        for (std::size_t m = 0; m < M; ++m) {
          ASSERT_TRUE(BitEqual(row[m], expected[m])) << "u=" << u << " m=" << m;
        }
      }
    }
  }
  SetLevelForTesting(original);
}

// ---------------------------------------------------------------------------
// Dispatch plumbing (no AVX2 hardware required)
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ParseLevelSpecCoversTheDocumentedSpellings) {
  Level level = Level::kAvx2;
  bool forced = false;
  ASSERT_TRUE(ParseLevelSpec("off", &level, &forced));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(forced);
  ASSERT_TRUE(ParseLevelSpec("scalar", &level, &forced));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(forced);
  ASSERT_TRUE(ParseLevelSpec("avx2", &level, &forced));
  EXPECT_EQ(level, Level::kAvx2);
  EXPECT_TRUE(forced);
  ASSERT_TRUE(ParseLevelSpec("auto", &level, &forced));
  EXPECT_FALSE(forced);
  EXPECT_FALSE(ParseLevelSpec("sse9", &level, &forced));
}

TEST(SimdDispatchTest, KernelsForUnavailableLevelFallsBackToScalar) {
  // Safe to call regardless of hardware; on non-AVX2 machines the AVX2
  // table must quietly resolve to the scalar one.
  const Kernels& table = KernelsFor(Level::kAvx2);
  if (!Avx2Available()) {
    EXPECT_EQ(&table, &KernelsFor(Level::kScalar));
  }
  const double v[3] = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(table.sum(v, 3), 6.0);
}

TEST(SimdDispatchTest, ReportLineNamesTheActiveLevel) {
  const std::string line = SimdReportLine();
  EXPECT_TRUE(line.find("simd: ") == 0) << line;
  EXPECT_TRUE(line.find(LevelName(ActiveLevel())) != std::string::npos) << line;
}

}  // namespace
}  // namespace cpa::simd
