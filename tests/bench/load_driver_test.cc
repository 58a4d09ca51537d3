#include "bench/load_driver.h"

#include <gtest/gtest.h>

#include <vector>

#include "server/router.h"
#include "simulation/adversary.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace cpa::bench {
namespace {

using server::Frame;
using server::FrameKind;

constexpr std::size_t kSessions = 2;
constexpr std::size_t kBatches = 2;

/// Two MV sessions, each replaying its own two-batch shuffle of one small
/// stream.
struct Workload {
  Dataset dataset;
  EngineConfig config;
  std::vector<BatchPlan> plans;
};

Workload MakeWorkload() {
  AdversaryConfig adversary;
  adversary.num_items = 40;
  adversary.num_workers = 12;
  adversary.num_labels = 6;
  adversary.answers_per_item = 4.0;
  adversary.num_batches = kBatches;
  adversary.simulation.candidate_set_size = 6;
  auto stream = GenerateAdversarialStream(adversary);
  CPA_CHECK_OK(stream.status());
  Workload workload;
  workload.dataset = std::move(stream.value().dataset);
  workload.config = EngineConfig::ForDataset("MV", workload.dataset);
  for (std::size_t s = 0; s < kSessions; ++s) {
    Rng rng(11 + s);
    workload.plans.push_back(
        MakeArrivalSchedule(workload.dataset.answers, kBatches, rng));
  }
  return workload;
}

/// One sample per op per batch per session, every answer counted once, and
/// no session left open behind `handler`.
void ExpectCompleteReplay(const ReplayResult& result, const Workload& workload,
                          FrameHandler& handler) {
  EXPECT_EQ(result.observe_ms.size(), kSessions * kBatches);
  EXPECT_EQ(result.snapshot_ms.size(), kSessions * kBatches);
  EXPECT_EQ(result.poll_ms.size(), kSessions * kBatches);
  EXPECT_EQ(result.answers, kSessions * workload.dataset.answers.num_answers());
  EXPECT_EQ(result.peak_connections, kSessions);
  ASSERT_EQ(result.final_predictions.size(), kSessions);
  for (const auto& predictions : result.final_predictions) {
    EXPECT_EQ(predictions.size(), workload.dataset.num_items());
  }

  const Frame listed = handler.HandleFrame({FrameKind::kJson, "{\"op\":\"list\"}"});
  CheckJsonOk(listed, "list");
  const auto parsed = JsonValue::Parse(listed.payload);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* sessions = parsed.value().Find("sessions");
  ASSERT_NE(sessions, nullptr);
  EXPECT_TRUE(sessions->array().empty()) << listed.payload;
}

// Declared first: it forks (the fork rule in bench/load_driver.h).
TEST(LoadDriverTest, RouterOverForkedWorkerMatchesInProcessServer) {
  const Workload workload = MakeWorkload();

  std::vector<FleetWorker> fleet;
  fleet.push_back(ForkFleetWorker({}, {}, fleet));
  RouterOptions router_options;
  router_options.workers.push_back(StrFormat("127.0.0.1:%u", fleet[0].port));
  Router router(router_options);
  ASSERT_TRUE(router.Start().ok());
  const ReplayResult routed = ReplaySessions(router, workload.config,
                                             workload.dataset, workload.plans,
                                             /*binary=*/true);
  ExpectCompleteReplay(routed, workload, router);
  router.Shutdown();
  StopFleetWorker(fleet[0]);

  ConsensusServer server;
  const ReplayResult in_process = ReplaySessions(
      server, workload.config, workload.dataset, workload.plans, /*binary=*/true);
  ExpectCompleteReplay(in_process, workload, server);
  EXPECT_EQ(routed.final_predictions, in_process.final_predictions);
}

TEST(LoadDriverTest, JsonAndBinaryReplaysAgree) {
  const Workload workload = MakeWorkload();
  ConsensusServer server;
  const ReplayResult json = ReplaySessions(server, workload.config, workload.dataset,
                                           workload.plans, /*binary=*/false);
  ExpectCompleteReplay(json, workload, server);
  const ReplayResult binary = ReplaySessions(
      server, workload.config, workload.dataset, workload.plans, /*binary=*/true);
  ExpectCompleteReplay(binary, workload, server);
  EXPECT_EQ(json.final_predictions, binary.final_predictions);
}

}  // namespace
}  // namespace cpa::bench
