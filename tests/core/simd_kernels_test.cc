#include "core/sweep/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/phi_rows.h"
#include "core/vi.h"
#include "simulation/dataset_factory.h"
#include "util/special_functions.h"

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
  for (std::size_t t = 0; t < a.num_clusters(); ++t) {
    EXPECT_DOUBLE_EQ(a.lambda[t].MaxAbsDiff(b.lambda[t]), 0.0) << t;
  }
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
