#include "core/phi_rows.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/cpa_model.h"
#include "engine/checkpoint.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/special_functions.h"

namespace cpa {
namespace {

constexpr double kFloorNats = 27.6;  // the ϕ MAP kernels' softmax floor

bool BitEqual(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A floored softmax row over `cols` clusters: a few dozen nonzeros, the
/// rest exactly 0, as the Eq. 3 kernel writes them.
std::vector<double> SoftmaxRow(std::size_t cols, Rng& rng) {
  std::vector<double> row(cols);
  for (double& logit : row) logit = -60.0 * rng.NextDouble();
  SoftmaxInPlace(row, kFloorNats);
  return row;
}

TEST(PhiRowsTest, InitialRowsAreRegeneratedFromTheirGeneratorState) {
  // The dense rows `ResetJittered` stands for: row after row from one
  // stream, each normalised by its lane-ordered sum.
  const std::size_t rows = 9;
  const std::size_t cols = 13;
  Rng dense_rng(5);
  Matrix dense(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& value : dense.Row(r)) value = JitteredDraw(dense_rng);
    NormalizeInPlace(dense.Row(r));
  }
  Rng rng(5);
  PhiRows phi;
  phi.ResetJittered(rows, cols, rng);
  // The generator is left where the dense fill leaves it.
  EXPECT_EQ(rng.NextUint64(), dense_rng.NextUint64());
  for (std::size_t r = 0; r < rows; ++r) {
    SCOPED_TRACE(r);
    ASSERT_TRUE(phi.IsInitial(r));
    EXPECT_TRUE(BitEqual(phi.DenseRow(r), dense.Row(r)));
    for (std::size_t t = 0; t < cols; ++t) {
      EXPECT_EQ(phi.At(r, t), dense(r, t));
    }
    EXPECT_EQ(phi.ArgMax(r), dense.ArgMaxRow(r));
    std::vector<double> seen(cols, -1.0);
    phi.ForEachNonzero(r, [&](std::size_t t, double w) { seen[t] = w; });
    EXPECT_TRUE(BitEqual(seen, dense.Row(r)));
  }
}

TEST(PhiRowsTest, WrittenRowsKeepOnlyTheirNonzerosInClusterOrder) {
  const std::size_t cols = 40;
  Rng init(3);
  PhiRows phi;
  phi.ResetJittered(3, cols, init);
  Rng rng(8);
  const std::vector<double> softmax = SoftmaxRow(cols, rng);
  phi.Assign(1, softmax);
  ASSERT_FALSE(phi.IsInitial(1));
  const std::size_t nonzeros =
      cols - static_cast<std::size_t>(std::count(softmax.begin(), softmax.end(), 0.0));
  ASSERT_LT(nonzeros, cols);  // the floor zeroed some entries
  std::vector<std::uint32_t> clusters(cols);
  std::vector<double> weights(cols);
  EXPECT_EQ(phi.CopyNonzeros(1, clusters, weights), nonzeros);
  EXPECT_TRUE(std::is_sorted(clusters.begin(), clusters.begin() + nonzeros));
  EXPECT_TRUE(BitEqual(phi.DenseRow(1), softmax));
  EXPECT_EQ(phi.ArgMax(1), static_cast<std::size_t>(
                               std::max_element(softmax.begin(), softmax.end()) -
                               softmax.begin()));

  // Ties resolve to the first cluster, as `std::max_element` does.
  std::vector<double> tied(cols, 0.0);
  tied[7] = 0.25;
  tied[21] = 0.5;
  tied[30] = 0.25;
  tied[33] = 0.0;
  tied[36] = 0.5;
  phi.Assign(2, tied);
  EXPECT_EQ(phi.ArgMax(2), 21u);
  EXPECT_EQ(phi.CopyNonzeros(2, clusters, weights), 4u);

  phi.AssignOneHot(0, 17);
  EXPECT_EQ(phi.At(0, 17), 1.0);
  EXPECT_EQ(phi.At(0, 16), 0.0);
  EXPECT_EQ(phi.ArgMax(0), 17u);
}

TEST(PhiRowsTest, HeavyAndLightEntriesReadInClusterOrder) {
  // Entries under kHeavyWeight sit at both ends and between the heavy
  // ones; 1e-8 itself is heavy.
  const std::size_t cols = 11;
  PhiRows phi;
  phi.ResetOneHot(1, cols);
  std::vector<double> row(cols, 0.0);
  row[0] = 1e-9;
  row[1] = 0.4;
  row[3] = 5e-9;
  row[4] = 0.6;
  row[5] = kHeavyWeight;
  row[6] = 2e-12;
  phi.Assign(0, row);
  EXPECT_TRUE(BitEqual(phi.DenseRow(0), row));
  for (std::size_t t = 0; t < cols; ++t) EXPECT_EQ(phi.At(0, t), row[t]) << t;
  EXPECT_EQ(phi.ArgMax(0), 4u);

  std::vector<std::size_t> order;
  phi.ForEachNonzero(0, [&](std::size_t t, double w) {
    EXPECT_EQ(w, row[t]);
    order.push_back(t);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 3, 4, 5, 6}));

  const auto clusters_at_least = [&](double threshold) {
    const PhiRows::Entries entries = phi.AtLeast(0, threshold);
    for (std::size_t k = 0; k < entries.clusters.size(); ++k) {
      EXPECT_EQ(entries.weights[k], row[entries.clusters[k]]);
    }
    return std::vector<std::uint32_t>(entries.clusters.begin(), entries.clusters.end());
  };
  EXPECT_EQ(clusters_at_least(kHeavyWeight), (std::vector<std::uint32_t>{1, 4, 5}));
  EXPECT_EQ(clusters_at_least(1e-10), (std::vector<std::uint32_t>{0, 1, 3, 4, 5}));
  EXPECT_EQ(clusters_at_least(0.5), (std::vector<std::uint32_t>{4}));

  std::vector<double> sum(cols, 0.0);
  phi.AddRows(0, 1, sum);
  EXPECT_TRUE(BitEqual(sum, row));
}

/// Row r's nonzeros as a (clusters, weights) pair.
struct Support {
  std::vector<std::uint32_t> clusters;
  std::vector<double> weights;
};
Support NonzerosOf(const PhiRows& phi, std::size_t r) {
  Support support{std::vector<std::uint32_t>(phi.cols()), std::vector<double>(phi.cols())};
  const std::size_t n = phi.CopyNonzeros(r, support.clusters, support.weights);
  support.clusters.resize(n);
  support.weights.resize(n);
  return support;
}

TEST(PhiRowsTest, RowChangeEqualsTheDenseMaxAbsDiff) {
  const std::size_t cols = 29;
  Rng init(13);
  PhiRows phi;
  phi.ResetJittered(3, cols, init);
  Rng rng(21);
  const std::vector<double> initial = phi.DenseRow(0);
  const Support initial_support = NonzerosOf(phi, 0);
  EXPECT_EQ(initial_support.clusters.size(), cols);
  const std::vector<double> first = SoftmaxRow(cols, rng);
  const std::vector<double> second_dense = SoftmaxRow(cols, rng);
  Support second;
  for (std::size_t t = 0; t < cols; ++t) {
    if (second_dense[t] == 0.0) continue;
    second.clusters.push_back(static_cast<std::uint32_t>(t));
    second.weights.push_back(second_dense[t]);
  }

  phi.Assign(0, first);
  EXPECT_EQ(phi.MaxAbsDiff(0, initial_support.clusters, initial_support.weights),
            MaxAbsDiff(first, initial));
  EXPECT_EQ(phi.MaxAbsDiff(0, second.clusters, second.weights),
            MaxAbsDiff(first, second_dense));
  // Against an initial row, the regenerated values take part.
  EXPECT_EQ(phi.MaxAbsDiff(1, second.clusters, second.weights),
            MaxAbsDiff(phi.DenseRow(1), second_dense));
  // Against a row kept dense, every column takes part.
  std::vector<double> near_dense(cols, 0.5 / static_cast<double>(cols));
  near_dense[4] = 0.0;
  phi.Assign(2, near_dense);
  EXPECT_EQ(phi.MaxAbsDiff(2, second.clusters, second.weights),
            MaxAbsDiff(near_dense, second_dense));
}

TEST(PhiRowsTest, NearDenseRowsAreKeptDenseAndThinBackToPairs) {
  const std::size_t cols = 300;
  PhiRows phi;
  phi.ResetOneHot(2, cols);
  const std::size_t one_hot_bytes = phi.HeapBytes();
  // 290 of 300 nonzeros: 290 pairs take 3480 bytes, 300 doubles 2400.
  std::vector<double> near_dense(cols);
  Rng rng(6);
  for (double& value : near_dense) value = 0.001 + rng.NextDouble();
  for (std::size_t t = 0; t < 10; ++t) near_dense[7 * t + 3] = 0.0;
  near_dense[150] = 5.0;
  phi.Assign(1, near_dense);
  EXPECT_EQ(phi.HeapBytes(), one_hot_bytes - sizeof(std::uint32_t) - sizeof(double) +
                                 cols * sizeof(double));
  EXPECT_TRUE(BitEqual(phi.DenseRow(1), near_dense));
  EXPECT_EQ(phi.At(1, 3), 0.0);
  EXPECT_EQ(phi.At(1, 4), near_dense[4]);
  EXPECT_EQ(phi.ArgMax(1), 150u);
  std::size_t visited = 0;
  phi.ForEachNonzero(1, [&](std::size_t t, double w) {
    EXPECT_NE(w, 0.0);
    EXPECT_EQ(w, near_dense[t]);
    ++visited;
  });
  EXPECT_EQ(visited, cols - 10);
  EXPECT_EQ(NonzerosOf(phi, 1).clusters.size(), cols - 10);
  std::vector<double> sums(cols, 0.0);
  phi.AddRows(0, 2, sums);
  std::vector<double> expected(cols, 0.0);
  expected[0] = 1.0;  // row 0 is one-hot on cluster 0
  for (std::size_t t = 0; t < cols; ++t) expected[t] += near_dense[t];
  EXPECT_TRUE(BitEqual(sums, expected));

  // Thinning out again gives the row back its pair storage.
  Rng thin(7);
  const std::vector<double> sparse = SoftmaxRow(cols, thin);
  const std::size_t pairs =
      cols - static_cast<std::size_t>(std::count(sparse.begin(), sparse.end(), 0.0));
  ASSERT_LT(3 * pairs, 2 * cols);
  phi.Assign(1, sparse);
  EXPECT_EQ(phi.HeapBytes(), one_hot_bytes + (pairs - 1) * (sizeof(std::uint32_t) +
                                                            sizeof(double)));
}

TEST(PhiRowsTest, InitialStoreHoldsNoTWideRows) {
  const std::size_t rows = 500;
  const std::size_t cols = 1024;
  Rng rng(1);
  PhiRows phi;
  phi.ResetJittered(rows, cols, rng);
  // One generator state and one normaliser per row, not T doubles.
  EXPECT_LT(phi.HeapBytes(), rows * 128);
  Rng softmax_rng(2);
  phi.Assign(0, SoftmaxRow(cols, softmax_rng));
  EXPECT_LT(phi.HeapBytes(), rows * 128 + cols * 12);
}

/// A model with rows of every stored form: initial, one-hot and softmax.
CpaModel MixedModel() {
  CpaOptions options;
  options.max_communities = 3;
  options.max_clusters = 37;
  options.seed = 99;
  auto model = CpaModel::Create(23, 11, 7, options);
  CPA_CHECK(model.ok());
  CpaModel m = std::move(model).value();
  Rng rng(4);
  m.phi.AssignOneHot(3, 12);
  m.phi.Assign(5, SoftmaxRow(m.num_clusters(), rng));
  m.phi.Assign(17, SoftmaxRow(m.num_clusters(), rng));
  return m;
}

TEST(PhiRowsTest, CheckpointWritesTheDenseLayoutAndRestoresCompactly) {
  const CpaModel saved = MixedModel();
  CheckpointWriter writer;
  saved.SaveState(writer);

  // ϕ's bytes are the dense matrix in `WriteMatrix` layout.
  Matrix dense(saved.phi.rows(), saved.phi.cols());
  for (std::size_t i = 0; i < dense.rows(); ++i) saved.phi.CopyRow(i, dense.Row(i));
  CheckpointWriter dense_writer;
  dense_writer.WriteMatrix(dense);
  EXPECT_NE(writer.bytes().find(dense_writer.bytes()), std::string::npos);

  // A model created alike restores the written rows and keeps every row
  // bit-equal to its initial draw initial, so it stays as compact as the
  // saved one — and re-saves to the same bytes.
  CpaOptions options = saved.options();
  auto restored = CpaModel::Create(23, 11, 7, options);
  ASSERT_TRUE(restored.ok());
  CheckpointReader reader(writer.bytes());
  ASSERT_TRUE(restored.value().RestoreState(reader).ok());
  const PhiRows& phi = restored.value().phi;
  for (std::size_t i = 0; i < phi.rows(); ++i) {
    EXPECT_EQ(phi.IsInitial(i), i != 3 && i != 5 && i != 17) << i;
  }
  EXPECT_EQ(MaxAbsDiff(phi, saved.phi), 0.0);
  EXPECT_EQ(phi.HeapBytes(), saved.phi.HeapBytes());
  CheckpointWriter resaved;
  restored.value().SaveState(resaved);
  EXPECT_TRUE(resaved.bytes() == writer.bytes());
}

}  // namespace
}  // namespace cpa
