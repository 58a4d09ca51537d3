/// Registry-wide robustness under adversarial input, end to end:
///
/// - the fault-injection wire test: an adversarial stream through a
///   router-fronted two-worker fleet of real forked server processes, one
///   worker SIGKILLed mid-stream and respawned on the same port, its
///   session restored from the latest client-held checkpoint — surviving
///   and restored sessions must finalize byte-identical to an
///   uninterrupted run (declared FIRST: it forks — the fork rule in
///   bench/load_driver.h);
/// - every registry method against every standard adversarial scenario:
///   finite posteriors, monotone counters, and CPA beating MV on every
///   non-degenerate scenario;
/// - checkpoint/restore mid-adversarial-stream bit-identity at the engine
///   level for the online methods.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/load_driver.h"
#include "engine/engine_registry.h"
#include "eval/metrics.h"
#include "server/binary_codec.h"
#include "server/consensus_server.h"
#include "server/router.h"
#include "server/tcp_transport.h"
#include "simulation/adversary.h"
#include "util/json.h"
#include "util/string_utils.h"

namespace cpa {
namespace {

using server::BinaryResponse;
using server::Frame;
using server::FrameKind;

/// A small but non-trivial adversarial stream for the wire tests.
AdversarialStream WireStream() {
  AdversaryConfig config;
  config.seed = 20180417;
  config.num_items = 48;
  config.num_workers = 20;
  config.num_labels = 8;
  config.answers_per_item = 5.0;
  config.num_batches = 6;
  config.strategies.honest = 0.6;
  config.strategies.uniform_spammer = 0.1;
  config.strategies.random_spammer = 0.1;
  config.strategies.sleeper = 0.2;
  config.simulation.candidate_set_size = 8;
  auto stream = GenerateAdversarialStream(config);
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  return std::move(stream).value();
}

EngineConfig WireConfig(const AdversarialStream& stream) {
  EngineConfig config = EngineConfig::ForDataset("CPA-SVI", stream.dataset);
  config.cpa.max_communities = 4;
  config.cpa.max_clusters = 24;
  config.cpa.max_iterations = 8;
  return config;
}

std::vector<std::vector<Answer>> BatchAnswers(const AdversarialStream& stream) {
  std::vector<std::vector<Answer>> batches;
  batches.reserve(stream.plan.batches.size());
  for (const auto& batch : stream.plan.batches) {
    std::vector<Answer> answers;
    answers.reserve(batch.size());
    for (std::size_t index : batch) {
      answers.push_back(stream.dataset.answers.answer(index));
    }
    batches.push_back(std::move(answers));
  }
  return batches;
}

void ExpectJsonOk(const Frame& frame, const char* what) {
  ASSERT_EQ(frame.kind, FrameKind::kJson) << what;
  const auto parsed = JsonValue::Parse(frame.payload);
  ASSERT_TRUE(parsed.ok()) << what << ": " << frame.payload;
  const JsonValue* ok = parsed.value().Find("ok");
  ASSERT_TRUE(ok != nullptr && ok->bool_value()) << what << ": "
                                                 << frame.payload;
}

BinaryResponse DecodeBinary(const Frame& frame, const char* what) {
  EXPECT_EQ(frame.kind, FrameKind::kBinary) << what;
  auto decoded = server::DecodeBinaryResponse(frame.payload);
  EXPECT_TRUE(decoded.ok()) << what << ": " << decoded.status().ToString();
  return std::move(decoded).value();
}

/// Forks one fleet worker; `port` 0 picks an ephemeral port, a fixed one
/// rebinds a respawn.
bench::FleetWorker SpawnWorker(std::uint16_t port,
                               const std::vector<bench::FleetWorker>& siblings) {
  ConsensusServerOptions options;
  options.sessions.max_sessions = 8;
  TcpTransportOptions tcp_options;
  tcp_options.port = port;
  tcp_options.max_connections = 8;
  return bench::ForkFleetWorker(options, tcp_options, siblings);
}

/// Routes one binary frame, retrying once: after a worker is killed the
/// pooled connection is stale, so the first frame can come back as a
/// transport error before the router's redial reaches the respawn.
BinaryResponse RoutedBinary(Router& router, const std::string& payload,
                            const char* what) {
  Frame reply = router.HandleFrame({FrameKind::kBinary, payload});
  BinaryResponse response = DecodeBinary(reply, what);
  if (!response.ok && response.error.code() == StatusCode::kIOError) {
    reply = router.HandleFrame({FrameKind::kBinary, payload});
    response = DecodeBinary(reply, what);
  }
  return response;
}

// MUST run first in this binary: it forks a worker fleet (the fork rule in
// bench/load_driver.h).
TEST(AdversarialFaultInjectionTest,
     KilledWorkerRestoredFromCheckpointFinishesByteIdentical) {
  const AdversarialStream stream = WireStream();
  const EngineConfig engine_config = WireConfig(stream);
  const auto batches = BatchAnswers(stream);
  ASSERT_GE(batches.size(), 4u);

  // Fleet of two forked workers behind an in-process router. The router
  // dials lazily over plain sockets and HandleFrame runs on this thread,
  // so the parent stays thread-free for the respawn fork below.
  std::vector<bench::FleetWorker> fleet;
  fleet.push_back(SpawnWorker(0, fleet));
  fleet.push_back(SpawnWorker(0, fleet));
  RouterOptions router_options;
  for (const bench::FleetWorker& worker : fleet) {
    router_options.workers.push_back(StrFormat("127.0.0.1:%u", worker.port));
  }
  Router router(router_options);
  ASSERT_TRUE(router.Start().ok());

  // One session on the worker we will kill, one on the survivor.
  std::string victim;
  std::string survivor;
  for (int i = 0; victim.empty() || survivor.empty(); ++i) {
    ASSERT_LT(i, 64);
    const std::string name = StrFormat("adv-%d", i);
    const std::size_t shard = router.WorkerIndexFor(name);
    if (shard == 0 && victim.empty()) victim = name;
    if (shard == 1 && survivor.empty()) survivor = name;
  }
  const std::vector<std::string> sessions = {victim, survivor};

  for (const std::string& session : sessions) {
    ExpectJsonOk(router.HandleFrame(
                     {FrameKind::kJson, bench::OpenRequest(session, engine_config)}),
                 "open");
  }

  // Stream the first half, checkpointing every session after every batch
  // (client-driven checkpoints are the only way a session survives its
  // worker — the router never replicates).
  const std::size_t kill_after = batches.size() / 2;
  std::map<std::string, std::string> latest_checkpoint;
  for (std::size_t b = 0; b < kill_after; ++b) {
    for (const std::string& session : sessions) {
      const BinaryResponse observed = RoutedBinary(
          router, server::EncodeObserveRequest(session, batches[b]),
          "observe");
      ASSERT_TRUE(observed.ok) << observed.error.ToString();
      const BinaryResponse checkpoint = RoutedBinary(
          router, server::EncodeCheckpointRequest(session), "checkpoint");
      ASSERT_TRUE(checkpoint.ok) << checkpoint.error.ToString();
      ASSERT_GT(checkpoint.state.size(), 0u);
      latest_checkpoint[session] = checkpoint.state;
    }
  }

  // SIGKILL the victim's worker mid-stream and respawn it on the same
  // port (SO_REUSEADDR on the listener makes the rebind race-free).
  const auto victim_port = static_cast<std::uint16_t>(fleet[0].port);
  ASSERT_EQ(::kill(fleet[0].pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(fleet[0].pid, &status, 0), fleet[0].pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ::close(fleet[0].control_fd);
  fleet[0].control_fd = -1;
  fleet[0] = SpawnWorker(victim_port, fleet);
  ASSERT_EQ(fleet[0].port, victim_port);

  // The respawned worker is empty: the victim session is gone until
  // restored from the latest checkpoint. The survivor never notices.
  {
    const BinaryResponse lost = RoutedBinary(
        router, server::EncodeObserveRequest(victim, batches[kill_after]),
        "lost observe");
    ASSERT_FALSE(lost.ok);
    const BinaryResponse restored = RoutedBinary(
        router, server::EncodeRestoreRequest(victim, latest_checkpoint[victim]),
        "restore");
    ASSERT_TRUE(restored.ok) << restored.error.ToString();
    ASSERT_EQ(restored.session, victim);
  }

  // Stream the remainder and finalize.
  std::map<std::string, std::string> fleet_finalize;
  for (std::size_t b = kill_after; b < batches.size(); ++b) {
    for (const std::string& session : sessions) {
      const BinaryResponse observed = RoutedBinary(
          router, server::EncodeObserveRequest(session, batches[b]),
          "observe");
      ASSERT_TRUE(observed.ok) << observed.error.ToString();
    }
  }
  for (const std::string& session : sessions) {
    const Frame reply = router.HandleFrame(
        {FrameKind::kBinary, server::EncodeFinalizeRequest(session, true)});
    const BinaryResponse finalized = DecodeBinary(reply, "finalize");
    ASSERT_TRUE(finalized.ok) << finalized.error.ToString();
    fleet_finalize[session] = reply.payload;
    ExpectJsonOk(
        router.HandleFrame(
            {FrameKind::kJson,
             StrFormat("{\"op\":\"close\",\"session\":\"%s\"}",
                       session.c_str())}),
        "close");
  }
  router.Shutdown();
  for (bench::FleetWorker& worker : fleet) bench::StopFleetWorker(worker);

  // Reference: the same two sessions, uninterrupted, on one in-process
  // server (constructed only now — after the last fork of this test).
  ConsensusServer reference;
  for (const std::string& session : sessions) {
    ExpectJsonOk(reference.HandleFrame(
                     {FrameKind::kJson, bench::OpenRequest(session, engine_config)}),
                 "reference open");
    for (const auto& batch : batches) {
      const BinaryResponse observed = DecodeBinary(
          reference.HandleFrame(
              {FrameKind::kBinary,
               server::EncodeObserveRequest(session, batch)}),
          "reference observe");
      ASSERT_TRUE(observed.ok) << observed.error.ToString();
    }
    const Frame reply = reference.HandleFrame(
        {FrameKind::kBinary, server::EncodeFinalizeRequest(session, true)});
    const BinaryResponse finalized = DecodeBinary(reply, "reference finalize");
    ASSERT_TRUE(finalized.ok) << finalized.error.ToString();

    // The acceptance bar: byte-identical finalize replies — predictions,
    // counters, learning rate, everything on the wire.
    EXPECT_EQ(fleet_finalize[session], reply.payload) << session;
  }
}

/// Per-batch invariants over one engine run; final metrics via `out`
/// (gtest ASSERTs need a void function).
void DriveAndCheck(const std::string& method,
                   const AdversarialScenario& scenario,
                   const AdversarialStream& stream, SetMetrics* out) {
  EngineConfig config = EngineConfig::ForDataset(method, stream.dataset);
  config.cpa.max_iterations = 6;
  auto opened = EngineRegistry::Global().Open(config);
  EXPECT_TRUE(opened.ok()) << method << ": " << opened.status().ToString();
  ConsensusEngine& engine = *opened.value();

  std::size_t last_batches = 0;
  std::size_t last_answers = 0;
  for (const auto& batch : stream.plan.batches) {
    const Status observed = engine.Observe({&stream.dataset.answers, batch});
    ASSERT_TRUE(observed.ok()) << scenario.name << "@" << method << ": "
                               << observed.ToString();
    auto snapshot = engine.Snapshot();
    ASSERT_TRUE(snapshot.ok()) << scenario.name << "@" << method;
    const ConsensusSnapshot& view = *snapshot.value();
    // No NaN/Inf posterior survives any scenario.
    for (std::size_t r = 0; r < view.label_scores.rows(); ++r) {
      for (double score : view.label_scores.Row(r)) {
        ASSERT_TRUE(std::isfinite(score))
            << scenario.name << "@" << method << " row " << r;
      }
    }
    ASSERT_TRUE(std::isfinite(view.learning_rate));
    // Counters are monotone and exact.
    EXPECT_EQ(view.batches_seen, last_batches + 1);
    EXPECT_EQ(view.answers_seen, last_answers + batch.size());
    last_batches = view.batches_seen;
    last_answers = view.answers_seen;
  }
  auto final_snapshot = engine.Finalize();
  ASSERT_TRUE(final_snapshot.ok()) << scenario.name << "@" << method;
  EXPECT_TRUE(final_snapshot.value()->finalized);
  *out = ComputeSetMetrics(final_snapshot.value()->predictions,
                           stream.dataset.ground_truth);
}

TEST(AdversarialRobustnessTest, EveryMethodSurvivesEveryScenario) {
  const auto scenarios = StandardScenarioMatrix(20180417, 0.15);
  ASSERT_GE(scenarios.size(), 5u);
  const auto methods = EngineRegistry::Global().MethodNames();
  ASSERT_GE(methods.size(), 7u);

  for (const auto& scenario : scenarios) {
    auto generated = GenerateAdversarialStream(scenario.config);
    ASSERT_TRUE(generated.ok()) << scenario.name;
    const AdversarialStream& stream = generated.value();

    std::map<std::string, double> f1;
    for (const std::string& method : methods) {
      SetMetrics metrics;
      DriveAndCheck(method, scenario, stream, &metrics);
      if (testing::Test::HasFatalFailure()) return;
      f1[method] = metrics.F1();
    }
    // The paper's robustness claim, generalised: the full model beats
    // majority voting wherever honest workers still anchor the stream.
    if (!scenario.degenerate) {
      EXPECT_GT(f1["CPA"], f1["MV"])
          << scenario.name << ": CPA " << f1["CPA"] << " vs MV " << f1["MV"];
    }
  }
}

TEST(AdversarialCheckpointTest, MidStreamRestoreIsBitIdentical) {
  const auto scenarios = StandardScenarioMatrix(20180417, 0.15);
  const AdversarialScenario& scenario = scenarios[1];  // spammer-flood
  auto generated = GenerateAdversarialStream(scenario.config);
  ASSERT_TRUE(generated.ok());
  const AdversarialStream& stream = generated.value();

  for (const std::string method : {"CPA", "CPA-SVI"}) {
    EngineConfig config = EngineConfig::ForDataset(method, stream.dataset);
    config.cpa.max_iterations = 6;
    auto original = EngineRegistry::Global().Open(config);
    ASSERT_TRUE(original.ok()) << method;

    const std::size_t half = stream.plan.batches.size() / 2;
    for (std::size_t b = 0; b < half; ++b) {
      ASSERT_TRUE(original.value()
                      ->Observe({&stream.dataset.answers,
                                 stream.plan.batches[b]})
                      .ok());
    }
    auto state = original.value()->SaveState();
    ASSERT_TRUE(state.ok()) << method << ": " << state.status().ToString();

    auto restored = EngineRegistry::Global().Open(config);
    ASSERT_TRUE(restored.ok()) << method;
    ASSERT_TRUE(restored.value()
                    ->RestoreState(state.value(), &stream.dataset.answers)
                    .ok());

    for (std::size_t b = half; b < stream.plan.batches.size(); ++b) {
      ASSERT_TRUE(original.value()
                      ->Observe({&stream.dataset.answers,
                                 stream.plan.batches[b]})
                      .ok());
      ASSERT_TRUE(restored.value()
                      ->Observe({&stream.dataset.answers,
                                 stream.plan.batches[b]})
                      .ok());
    }
    auto final_original = original.value()->Finalize();
    auto final_restored = restored.value()->Finalize();
    ASSERT_TRUE(final_original.ok());
    ASSERT_TRUE(final_restored.ok());

    const ConsensusSnapshot& a = *final_original.value();
    const ConsensusSnapshot& b = *final_restored.value();
    EXPECT_EQ(a.batches_seen, b.batches_seen) << method;
    EXPECT_EQ(a.answers_seen, b.answers_seen) << method;
    EXPECT_EQ(a.learning_rate, b.learning_rate) << method;
    ASSERT_EQ(a.predictions.size(), b.predictions.size()) << method;
    for (std::size_t i = 0; i < a.predictions.size(); ++i) {
      EXPECT_EQ(a.predictions[i], b.predictions[i]) << method << " item " << i;
    }
    if (!a.label_scores.empty() || !b.label_scores.empty()) {
      EXPECT_EQ(a.label_scores.MaxAbsDiff(b.label_scores), 0.0) << method;
    }
  }
}

}  // namespace
}  // namespace cpa
