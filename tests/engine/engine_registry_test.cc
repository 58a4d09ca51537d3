#include "engine/engine_registry.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "baselines/majority_vote.h"
#include "engine/offline_engine.h"
#include "simulation/dataset_factory.h"

namespace cpa {
namespace {

Dataset QuickDataset() {
  FactoryOptions options;
  options.scale = 0.05;
  auto dataset = MakePaperDataset(PaperDatasetId::kMovie, options);
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset).value();
}

TEST(EngineRegistryTest, ProvidesThePaperLineUp) {
  const auto names = EngineRegistry::Global().MethodNames();
  for (const char* name :
       {"MV", "EM", "cBCC", "CPA", "CPA-NoZ", "CPA-NoL", "CPA-SVI"}) {
    EXPECT_TRUE(EngineRegistry::Global().Has(name)) << name;
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end()) << name;
  }
}

TEST(EngineRegistryTest, UnknownNameIsNotFoundAndListsMethods) {
  EngineConfig config;
  config.method = "definitely-not-a-method";
  config.num_labels = 5;
  const auto engine = EngineRegistry::Global().Open(config);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
  // The error names what *is* registered, so a typo is self-diagnosing.
  EXPECT_NE(engine.status().message().find("definitely-not-a-method"),
            std::string::npos);
  EXPECT_NE(engine.status().message().find("CPA-SVI"), std::string::npos);
  EXPECT_NE(engine.status().message().find("MV"), std::string::npos);
}

TEST(EngineRegistryTest, OpenValidatesTheConfig) {
  EngineConfig config;  // num_labels = 0
  config.method = "MV";
  EXPECT_EQ(EngineRegistry::Global().Open(config).status().code(),
            StatusCode::kInvalidArgument);
  config.method.clear();
  config.num_labels = 5;
  EXPECT_EQ(EngineRegistry::Global().Open(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineRegistryTest, OpenReturnsFreshIndependentSessions) {
  const Dataset dataset = QuickDataset();
  const EngineConfig config = EngineConfig::ForDataset("MV", dataset);
  auto first = EngineRegistry::Global().Open(config);
  auto second = EngineRegistry::Global().Open(config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value().get(), second.value().get());

  // Feeding one session leaves the other untouched.
  std::vector<std::size_t> batch = {0, 1, 2};
  ASSERT_TRUE(first.value()->Observe({&dataset.answers, batch}).ok());
  EXPECT_EQ(first.value()->answers_seen(), 3u);
  EXPECT_EQ(second.value()->answers_seen(), 0u);
  ASSERT_TRUE(first.value()->Finalize().ok());
  EXPECT_TRUE(first.value()->finalized());
  EXPECT_FALSE(second.value()->finalized());
}

TEST(EngineRegistryTest, RegisterRejectsDuplicatesAndNulls) {
  EngineRegistry registry;
  auto factory = [](const EngineConfig& config)
      -> Result<std::unique_ptr<ConsensusEngine>> {
    return std::unique_ptr<ConsensusEngine>(std::make_unique<OfflineEngine>(
        "custom", std::make_unique<MajorityVote>(), config.num_labels));
  };
  ASSERT_TRUE(registry.Register("custom", factory).ok());
  EXPECT_EQ(registry.Register("custom", factory).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Register("", factory).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("null", nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineRegistryTest, CustomMethodsOpenLikeBuiltins) {
  EngineRegistry registry;
  ASSERT_TRUE(registry
                  .Register("my-mv",
                            [](const EngineConfig& config)
                                -> Result<std::unique_ptr<ConsensusEngine>> {
                              return std::unique_ptr<ConsensusEngine>(
                                  std::make_unique<OfflineEngine>(
                                      "my-mv",
                                      std::make_unique<MajorityVote>(config.majority),
                                      config.num_labels));
                            })
                  .ok());
  const Dataset dataset = QuickDataset();
  auto engine = registry.Open(EngineConfig::ForDataset("my-mv", dataset));
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value()->name(), "my-mv");
}

TEST(EngineConfigTest, JsonRoundTripPreservesEverySerializedField) {
  EngineConfig config;
  config.method = "CPA-SVI";
  config.num_items = 321;
  config.num_workers = 45;
  config.num_labels = 17;
  config.num_threads = 3;
  config.cpa.max_communities = 9;
  config.cpa.max_clusters = 123;
  config.cpa.alpha = 1.5;
  config.cpa.epsilon = 0.75;
  config.cpa.lambda0 = 0.2;
  config.cpa.zeta0 = 0.3;
  config.cpa.max_iterations = 41;
  config.cpa.tolerance = 5e-4;
  config.cpa.seed = 20180417;
  config.svi.workers_per_batch = 13;
  config.majority.threshold = 0.6;
  config.majority.fallback_to_top_label = true;
  config.em.max_iterations = 11;
  config.em.tolerance = 1e-3;
  config.em.smoothing = 0.5;
  config.em.threshold = 0.55;
  config.em.use_mislabeling_cost = true;
  config.cbcc.num_communities = 6;
  config.cbcc.max_iterations = 12;
  config.cbcc.tolerance = 2e-4;
  config.cbcc.threshold = 0.45;

  // Full cycle: typed struct → JSON text → parsed document → typed struct.
  const auto parsed = JsonValue::Parse(config.ToJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto round = EngineConfig::FromJson(parsed.value());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  const EngineConfig& r = round.value();

  EXPECT_EQ(r.method, config.method);
  EXPECT_EQ(r.num_items, config.num_items);
  EXPECT_EQ(r.num_workers, config.num_workers);
  EXPECT_EQ(r.num_labels, config.num_labels);
  EXPECT_EQ(r.num_threads, config.num_threads);
  EXPECT_EQ(r.cpa.max_communities, config.cpa.max_communities);
  EXPECT_EQ(r.cpa.max_clusters, config.cpa.max_clusters);
  EXPECT_DOUBLE_EQ(r.cpa.alpha, config.cpa.alpha);
  EXPECT_DOUBLE_EQ(r.cpa.epsilon, config.cpa.epsilon);
  EXPECT_DOUBLE_EQ(r.cpa.lambda0, config.cpa.lambda0);
  EXPECT_DOUBLE_EQ(r.cpa.zeta0, config.cpa.zeta0);
  EXPECT_EQ(r.cpa.max_iterations, config.cpa.max_iterations);
  EXPECT_DOUBLE_EQ(r.cpa.tolerance, config.cpa.tolerance);
  EXPECT_EQ(r.cpa.seed, config.cpa.seed);
  EXPECT_EQ(r.svi.workers_per_batch, config.svi.workers_per_batch);
  EXPECT_DOUBLE_EQ(r.majority.threshold, config.majority.threshold);
  EXPECT_EQ(r.majority.fallback_to_top_label, config.majority.fallback_to_top_label);
  EXPECT_EQ(r.em.max_iterations, config.em.max_iterations);
  EXPECT_DOUBLE_EQ(r.em.tolerance, config.em.tolerance);
  EXPECT_DOUBLE_EQ(r.em.smoothing, config.em.smoothing);
  EXPECT_DOUBLE_EQ(r.em.threshold, config.em.threshold);
  EXPECT_EQ(r.em.use_mislabeling_cost, config.em.use_mislabeling_cost);
  EXPECT_EQ(r.cbcc.num_communities, config.cbcc.num_communities);
  EXPECT_EQ(r.cbcc.max_iterations, config.cbcc.max_iterations);
  EXPECT_DOUBLE_EQ(r.cbcc.tolerance, config.cbcc.tolerance);
  EXPECT_DOUBLE_EQ(r.cbcc.threshold, config.cbcc.threshold);
}

TEST(EngineConfigTest, FromJsonAcceptsPartialDocuments) {
  const auto parsed = JsonValue::Parse(R"({"method": "MV", "num_labels": 7})");
  ASSERT_TRUE(parsed.ok());
  const auto config = EngineConfig::FromJson(parsed.value());
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().method, "MV");
  EXPECT_EQ(config.value().num_labels, 7u);
  // Untouched knobs keep their defaults.
  EXPECT_EQ(config.value().cpa.max_iterations, CpaOptions().max_iterations);
  EXPECT_EQ(config.value().svi.workers_per_batch, SviOptions().workers_per_batch);
}

TEST(EngineConfigTest, FromJsonRejectsWrongKinds) {
  const auto parsed = JsonValue::Parse(R"({"method": 12})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(EngineConfig::FromJson(parsed.value()).status().code(),
            StatusCode::kInvalidArgument);
  const auto negative = JsonValue::Parse(R"({"num_items": -3})");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(EngineConfig::FromJson(negative.value()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EngineConfig::FromJson(JsonValue(3.0)).status().code(),
            StatusCode::kInvalidArgument);
}

// The retired `svi.exact_local_phi` key: older checkpoints embed `true`,
// which still parses; `false` named the removed µ path and is refused.
TEST(EngineConfigTest, FromJsonHandlesRetiredExactLocalPhiKey) {
  const auto legacy = JsonValue::Parse(
      R"({"method": "CPA-SVI", "svi": {"exact_local_phi": true}})");
  ASSERT_TRUE(legacy.ok());
  EXPECT_TRUE(EngineConfig::FromJson(legacy.value()).ok());
  const auto removed = JsonValue::Parse(
      R"({"method": "CPA-SVI", "svi": {"exact_local_phi": false}})");
  ASSERT_TRUE(removed.ok());
  const Status status = EngineConfig::FromJson(removed.value()).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("exact_local_phi"), std::string::npos);
}

// The retired `svi.forgetting_rate` and `svi.reinforcement_rounds` keys:
// older checkpoints embed the only values any session ran (0.875 and 1),
// which still parse; any other value is refused, and neither key is
// written any more.
TEST(EngineConfigTest, FromJsonHandlesRetiredSviKeys) {
  const auto legacy = JsonValue::Parse(
      R"({"method": "CPA-SVI",
          "svi": {"forgetting_rate": 0.875, "reinforcement_rounds": 1}})");
  ASSERT_TRUE(legacy.ok());
  EXPECT_TRUE(EngineConfig::FromJson(legacy.value()).ok());
  const struct {
    const char* key;
    const char* document;
  } removed_values[] = {
      {"forgetting_rate", R"({"method": "CPA-SVI", "svi": {"forgetting_rate": 0.9}})"},
      {"reinforcement_rounds",
       R"({"method": "CPA-SVI", "svi": {"reinforcement_rounds": 2}})"},
  };
  for (const auto& [key, document] : removed_values) {
    SCOPED_TRACE(key);
    const auto removed = JsonValue::Parse(document);
    ASSERT_TRUE(removed.ok());
    const Status status = EngineConfig::FromJson(removed.value()).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(key), std::string::npos);
  }
  const JsonValue written = EngineConfig().ToJson();
  const JsonValue* svi = written.Find("svi");
  ASSERT_NE(svi, nullptr);
  EXPECT_EQ(svi->Find("forgetting_rate"), nullptr);
  EXPECT_EQ(svi->Find("reinforcement_rounds"), nullptr);
}

TEST(EngineRegistryTest, SessionsCarryTheRegistryNameTheyWereOpenedUnder) {
  const Dataset dataset = QuickDataset();
  EngineConfig config = EngineConfig::ForDataset("EM", dataset);
  // DawidSkene renames itself "EM+cost" with the cost refinement on; the
  // session must still answer to the name it was opened under.
  config.em.use_mislabeling_cost = true;
  auto engine = EngineRegistry::Global().Open(config);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value()->name(), "EM");
}

TEST(EngineConfigTest, WithFlagsRejectsNegativeCounts) {
  const Dataset dataset = QuickDataset();
  const EngineConfig base = EngineConfig::ForDataset("MV", dataset);
  const char* argv[] = {"test", "--num-items=-1"};
  const auto flags = Flags::Parse(2, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(base.WithFlags(flags.value()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineConfigTest, WithFlagsOverridesOnlyNamedFields) {
  const Dataset dataset = QuickDataset();
  const EngineConfig base = EngineConfig::ForDataset("CPA-SVI", dataset);

  const char* argv[] = {"test", "--method=EM", "--cpa-iterations=7",
                        "--workers-per-batch=3", "--num-threads=2"};
  const auto flags = Flags::Parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  const auto config = base.WithFlags(flags.value());
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config.value().method, "EM");
  EXPECT_EQ(config.value().cpa.max_iterations, 7u);
  EXPECT_EQ(config.value().svi.workers_per_batch, 3u);
  EXPECT_EQ(config.value().num_threads, 2u);
  // Unnamed fields keep the dataset sizing.
  EXPECT_EQ(config.value().num_items, base.num_items);
  EXPECT_EQ(config.value().num_labels, base.num_labels);
}

}  // namespace
}  // namespace cpa
