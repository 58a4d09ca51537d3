/// \file golden_checkpoint_test.cc
/// \brief Checkpoint blobs recorded by an older build keep restoring, and
/// the restored sessions finalize to the same reply bytes.
///
/// The fixtures in `testdata/` were recorded at commit 1fbf48d, whose
/// offline sessions still carried a private refit cache in every
/// checkpoint, by a small program linked against that commit's library:
/// - Stream: the `StreamDataset` recipe of consensus_engine_test.cc with
///   `Rng(20181017)`, 60 items, 10 labels, 30 workers and 6 answers per
///   item (360 answers), split by `MakeArrivalSchedule(answers, 3, Rng(57))`.
/// - Config: `EngineConfig::ForDataset(method, dataset)` with
///   `cpa.max_communities = 4`, `cpa.max_clusters = 16`,
///   `cpa.max_iterations = 10` and `svi.workers_per_batch = 10`.
/// - Per case, on a fresh `ConsensusServer`: open session "golden",
///   observe batch 0, refresh a snapshot, observe batch 1, then
///   `SessionManager::Checkpoint` → `<case>.ckpt`, and the reply line of
///   `{"op":"finalize","session":"golden"}` → `<case>.finalize.json`.
///   So each offline blob holds a fitted private cache that is stale.
///   "CPA-clean" skips batch 1: its blob holds a current private cache next
///   to a current base-level snapshot.
///
/// The first test compares finalize replies, not re-saved blobs: re-saving
/// an offline session legitimately drops the retired private cache, and
/// the session header has changed since the fixtures were recorded. The
/// second restores the online learner's blob, re-saves it, and checks that
/// the re-saved blob restores and re-saves to the same bytes — ϕ included,
/// which the model keeps as sparse and regenerated initial rows but writes
/// in the dense layout. The third continues the online session from the
/// recorded blob, whose retired learner fields carry content, and from its
/// re-saved form, where they are placeholders: one more batch, then
/// finalize, must reply the same bytes.

#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "server/consensus_server.h"
#include "simulation/crowd_simulator.h"
#include "simulation/perturbations.h"

namespace cpa {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(CPA_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(GoldenCheckpointTest, OlderBlobsRestoreAndFinalizeByteIdentically) {
  for (const char* name : {"MV", "EM", "cBCC", "CPA", "CPA-NoZ", "CPA-NoL",
                           "CPA-SVI", "CPA-clean"}) {
    SCOPED_TRACE(name);
    const std::string blob = ReadFixture(std::string(name) + ".ckpt");
    const std::string expected =
        ReadFixture(std::string(name) + ".finalize.json");
    ASSERT_FALSE(blob.empty());

    ConsensusServer server;
    const auto ack = server.sessions().Restore(blob);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack.value().session_id, "golden");
    const std::string reply =
        server.HandleLine(R"({"op":"finalize","session":"golden"})");
    EXPECT_EQ(reply + "\n", expected);
  }
}

/// Restores `state` on a fresh server and returns the re-saved blob.
std::string Resave(const std::string& state) {
  ConsensusServer server;
  const auto ack = server.sessions().Restore(state);
  EXPECT_TRUE(ack.ok()) << ack.status().ToString();
  if (!ack.ok()) return "";
  const auto saved = server.sessions().Checkpoint(ack.value().session_id);
  EXPECT_TRUE(saved.ok()) << saved.status().ToString();
  return saved.ok() ? saved.value() : "";
}

/// The fixtures' stream (see the file comment), split into its three
/// arrival batches.
struct GoldenStream {
  AnswerMatrix answers;
  BatchPlan plan;
};

GoldenStream MakeGoldenStream() {
  Rng rng(20181017);
  TruthConfig truth_config;
  truth_config.num_items = 60;
  truth_config.num_labels = 10;
  truth_config.num_clusters = 3;
  truth_config.correlation = 0.8;
  truth_config.mean_labels_per_item = 2.5;
  truth_config.max_labels_per_item = 5;
  auto truth = GenerateGroundTruth(truth_config, rng);
  EXPECT_TRUE(truth.ok());
  PopulationConfig population_config;
  population_config.num_workers = 30;
  population_config.num_labels = 10;
  population_config.mix = PopulationMix::PaperSimulationDefault();
  auto workers = GeneratePopulation(population_config, rng);
  EXPECT_TRUE(workers.ok());
  SimulationConfig sim_config;
  sim_config.answers_per_item = 6.0;
  sim_config.candidate_set_size = 10;
  auto answers = SimulateAnswers(truth.value(), workers.value(), sim_config, rng);
  EXPECT_TRUE(answers.ok());
  GoldenStream stream;
  stream.answers = std::move(answers).value();
  Rng schedule_rng(57);
  stream.plan = MakeArrivalSchedule(stream.answers, 3, schedule_rng);
  return stream;
}

/// The JSON observe request carrying `batch` for session "golden".
std::string ObserveLine(const AnswerMatrix& answers,
                        const std::vector<std::size_t>& batch) {
  std::string line = R"({"op":"observe","session":"golden","answers":[)";
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const Answer& answer = answers.answer(batch[k]);
    if (k > 0) line += ",";
    line += "{\"item\":" + std::to_string(answer.item);
    line += ",\"worker\":" + std::to_string(answer.worker);
    line += ",\"labels\":[";
    bool first = true;
    for (const LabelId label : answer.labels) {
      if (!first) line += ",";
      line += std::to_string(label);
      first = false;
    }
    line += "]}";
  }
  line += "]}";
  return line;
}

TEST(GoldenCheckpointTest, OnlineBlobRoundTripsByteIdentically) {
  const std::string blob = ReadFixture("CPA-SVI.ckpt");
  ASSERT_FALSE(blob.empty());
  const std::string once = Resave(blob);
  ASSERT_FALSE(once.empty());
  EXPECT_TRUE(Resave(once) == once) << "re-saved blob does not round-trip";
}

TEST(GoldenCheckpointTest, RetiredOnlineFieldsAreReadAndDiscarded) {
  const std::string recorded = ReadFixture("CPA-SVI.ckpt");
  ASSERT_FALSE(recorded.empty());
  const std::string placeholders = Resave(recorded);
  ASSERT_FALSE(placeholders.empty());
  // The recorded blob's retired fields hold data its re-save drops.
  EXPECT_LT(placeholders.size(), recorded.size());

  const GoldenStream stream = MakeGoldenStream();
  ASSERT_EQ(stream.plan.num_batches(), 3u);
  const std::string observe = ObserveLine(stream.answers, stream.plan.batches[2]);
  const auto continue_and_finalize = [&](const std::string& state) -> std::string {
    ConsensusServer server;
    const auto ack = server.sessions().Restore(state);
    EXPECT_TRUE(ack.ok()) << ack.status().ToString();
    if (!ack.ok()) return "";
    // The blob holds the first two batches of the recipe's stream.
    EXPECT_EQ(ack.value().answers_seen, stream.plan.Prefix(2).size());
    const std::string observed = server.HandleLine(observe);
    EXPECT_NE(observed.find(R"("ok":true)"), std::string::npos) << observed;
    return server.HandleLine(R"({"op":"finalize","session":"golden"})");
  };
  const std::string from_recorded = continue_and_finalize(recorded);
  EXPECT_NE(from_recorded.find(R"("ok":true)"), std::string::npos) << from_recorded;
  EXPECT_EQ(from_recorded, continue_and_finalize(placeholders));
}

}  // namespace
}  // namespace cpa
