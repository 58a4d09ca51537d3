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
/// The test compares finalize replies, not re-saved blobs: re-saving an
/// offline session legitimately drops the retired private cache.

#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "server/consensus_server.h"

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

}  // namespace
}  // namespace cpa
