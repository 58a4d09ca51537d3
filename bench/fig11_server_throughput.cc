/// Fig 11 (repo extension, no paper counterpart): multi-session server
/// throughput and tail latency over the real socket transport. N
/// concurrent client connections — each its own socket, session, and
/// thread — drive one in-process `TcpTransport` listener through the
/// length-prefixed frame protocol, once in JSON and once in binary
/// framing. Every client opens its session (JSON frame), streams its batches,
/// pulls a refresh snapshot and a cached poll per batch (both with the
/// full prediction payload — serialization of large prediction payloads
/// is the CPU sink this bench exists to watch), finalizes and closes,
/// while all sessions' sweep work shares one `ServerScheduler` pool.
/// Reports answers/s, p50/p95/p99 latency per op per run, and the
/// transport's syscall-visibility counters (frames per recv(2) call,
/// partial writes) into `BENCH_fig11_server_throughput.json`, asserting
/// every run produced identical final predictions for every session.
///
///   $ fig11_server_throughput                  # 100 conns, json + binary
///   $ fig11_server_throughput --connections 200 --num-threads 4 --method MV
///   $ fig11_server_throughput --workers 4      # plus a 4-worker router run
///   $ fig11_server_throughput --adversarial colluding-cliques
///
/// `--method MV` (or any offline method) makes every refresh snapshot a
/// refit on the data so far — the worst-case polling load; the default
/// CPA-SVI pays one incremental step per batch.
///
/// `--adversarial <scenario>` swaps the benign replayed stream for a
/// named cell of the standard adversarial scenario matrix
/// (src/simulation/adversary.h): every client replays the generated
/// hostile stream — colluding cliques, sleeper ramps, bursty arrivals —
/// so the serving layer is measured under the load shape the robustness
/// suite studies, not just a friendly shuffle.
///
/// With `--workers N` (default 2, `--workers 0` disables) the bench also
/// measures the sharded deployment: N real `fork()`ed worker processes,
/// each a full server + TCP listener, behind an in-process `Router` and a
/// front listener — the `cpa_server --router` topology, clients untouched.
/// Workers are forked before any thread exists in the run (TSan-clean),
/// hand their port back over a pipe, and exit on control-pipe EOF. Those
/// runs report under `w<N>_<transport>_*` keys; the single-process runs
/// report under `json_*` / `binary_*`.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "server/binary_codec.h"
#include "server/consensus_server.h"
#include "server/protocol.h"
#include "server/router.h"
#include "server/tcp_client.h"
#include "server/tcp_transport.h"
#include "simulation/adversary.h"
#include "simulation/perturbations.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/string_utils.h"

using namespace cpa;

namespace {

using bench::Percentile;
using server::BinaryResponse;
using server::Frame;
using server::FrameKind;
using server::TcpFrameClient;

/// Asserts a JSON response frame parses and carries `"ok":true`.
void CheckJsonOk(const Frame& frame, const char* what) {
  CPA_CHECK(frame.kind == FrameKind::kJson) << what;
  const auto parsed = JsonValue::Parse(frame.payload);
  CPA_CHECK(parsed.ok()) << what << ": " << frame.payload;
  const JsonValue* ok = parsed.value().Find("ok");
  CPA_CHECK(ok != nullptr && ok->bool_value()) << what << ": " << frame.payload;
}

/// Decodes a binary response frame and asserts it is not an error reply.
BinaryResponse CheckBinaryOk(const Frame& frame, const char* what) {
  CPA_CHECK(frame.kind == FrameKind::kBinary) << what;
  auto decoded = server::DecodeBinaryResponse(frame.payload);
  CPA_CHECK(decoded.ok()) << what << ": " << decoded.status().ToString();
  CPA_CHECK(decoded.value().ok) << what << ": "
                                << decoded.value().error.ToString();
  return std::move(decoded).value();
}

/// One roundtrip, timed. The reply frame lands in `reply`.
double TimedRoundtrip(TcpFrameClient& client, FrameKind kind,
                      std::string_view payload, Frame& reply) {
  const Stopwatch stopwatch;
  auto result = client.Roundtrip(kind, payload);
  const double ms = stopwatch.ElapsedMillis();
  CPA_CHECK(result.ok()) << result.status().ToString();
  reply = std::move(result).value();
  return ms;
}

struct ClientStats {
  std::size_t answers = 0;
  std::vector<double> observe_ms;
  std::vector<double> snapshot_ms;  ///< refresh snapshots, with predictions
  std::vector<double> poll_ms;      ///< cached polls, with predictions
  std::vector<LabelSet> final_predictions;
};

/// Extracts the predictions array of a JSON snapshot/finalize response.
std::vector<LabelSet> JsonPredictions(const Frame& frame) {
  const auto parsed = JsonValue::Parse(frame.payload);
  CPA_CHECK(parsed.ok());
  const JsonValue* rows = parsed.value().Find("predictions");
  CPA_CHECK(rows != nullptr);
  std::vector<LabelSet> predictions;
  predictions.reserve(rows->array().size());
  for (const JsonValue& row : rows->array()) {
    std::vector<LabelId> labels;
    labels.reserve(row.array().size());
    for (const JsonValue& label : row.array()) {
      labels.push_back(static_cast<LabelId>(label.number_value()));
    }
    predictions.push_back(LabelSet::FromUnsorted(std::move(labels)));
  }
  return predictions;
}

/// One synthetic stream over one real TCP connection: open → (observe +
/// snapshot + poll) per batch → finalize → close. `binary` routes the hot
/// ops through the binary codec; control ops are JSON frames either way.
ClientStats RunClient(TcpFrameClient client, const std::string& session,
                      const EngineConfig& config, const Dataset& dataset,
                      const BatchPlan& plan, bool binary,
                      const std::atomic<bool>& go) {
  ClientStats stats;
  Frame reply;

  JsonValue::Object open;
  open["op"] = JsonValue(std::string("open"));
  open["session"] = JsonValue(session);
  open["config"] = config.ToJson();
  auto opened = client.Roundtrip(FrameKind::kJson,
                                 JsonValue(std::move(open)).DumpCompact());
  CPA_CHECK(opened.ok()) << opened.status().ToString();
  CheckJsonOk(opened.value(), "open");

  // Hold here until every client is connected — the bench measures the
  // server under its full concurrent-connection load, not a ramp.
  while (!go.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<Answer> batch_answers;
  for (const auto& batch : plan.batches) {
    batch_answers.clear();
    batch_answers.reserve(batch.size());
    for (std::size_t index : batch) {
      batch_answers.push_back(dataset.answers.answer(index));
    }
    if (binary) {
      stats.observe_ms.push_back(TimedRoundtrip(
          client, FrameKind::kBinary,
          server::EncodeObserveRequest(session, batch_answers), reply));
      CheckBinaryOk(reply, "observe");
      stats.snapshot_ms.push_back(TimedRoundtrip(
          client, FrameKind::kBinary,
          server::EncodeSnapshotRequest(session, /*refresh=*/true,
                                        /*include_predictions=*/true),
          reply));
      CheckBinaryOk(reply, "snapshot");
      stats.poll_ms.push_back(TimedRoundtrip(
          client, FrameKind::kBinary,
          server::EncodeSnapshotRequest(session, /*refresh=*/false,
                                        /*include_predictions=*/true),
          reply));
      CheckBinaryOk(reply, "poll");
    } else {
      stats.observe_ms.push_back(
          TimedRoundtrip(client, FrameKind::kJson,
                         server::MakeObserveRequest(session, batch_answers),
                         reply));
      CheckJsonOk(reply, "observe");
      stats.snapshot_ms.push_back(TimedRoundtrip(
          client, FrameKind::kJson,
          StrFormat("{\"op\":\"snapshot\",\"session\":\"%s\"}", session.c_str()),
          reply));
      CheckJsonOk(reply, "snapshot");
      stats.poll_ms.push_back(TimedRoundtrip(
          client, FrameKind::kJson,
          StrFormat("{\"op\":\"snapshot\",\"session\":\"%s\","
                    "\"refresh\":false}",
                    session.c_str()),
          reply));
      CheckJsonOk(reply, "poll");
    }
    stats.answers += batch.size();
  }

  if (binary) {
    auto finalized = client.Roundtrip(
        FrameKind::kBinary, server::EncodeFinalizeRequest(session, true));
    CPA_CHECK(finalized.ok()) << finalized.status().ToString();
    stats.final_predictions =
        CheckBinaryOk(finalized.value(), "finalize").predictions;
  } else {
    auto finalized = client.Roundtrip(
        FrameKind::kJson,
        StrFormat("{\"op\":\"finalize\",\"session\":\"%s\"}", session.c_str()));
    CPA_CHECK(finalized.ok()) << finalized.status().ToString();
    CheckJsonOk(finalized.value(), "finalize");
    stats.final_predictions = JsonPredictions(finalized.value());
  }

  auto closed = client.Roundtrip(
      FrameKind::kJson,
      StrFormat("{\"op\":\"close\",\"session\":\"%s\"}", session.c_str()));
  CPA_CHECK(closed.ok()) << closed.status().ToString();
  CheckJsonOk(closed.value(), "close");
  return stats;
}

/// Aggregated outcome of one run (one encoding × deployment cell).
struct TransportResult {
  double wall_s = 0.0;
  std::size_t answers = 0;
  std::size_t peak_connections = 0;
  std::vector<double> observe_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> poll_ms;
  std::vector<std::vector<LabelSet>> final_predictions;  ///< per session
  TcpTransportStats stats;  ///< listener counters, incl. syscall visibility
};

/// One forked fleet worker as seen by the parent.
struct WorkerProcess {
  pid_t pid = -1;
  int control_fd = -1;  ///< write end; closing it tells the worker to exit
  std::uint32_t port = 0;
};

/// Child-process body of one fleet worker: a full server + TCP listener,
/// port reported over `port_fd`, serving until `control_fd` hits EOF —
/// exactly what a `cpa_server --tcp` process does, minus flag parsing.
void WorkerMain(int port_fd, int control_fd, std::size_t num_threads,
                std::size_t max_sessions, std::size_t max_connections) {
  ConsensusServerOptions options;
  options.sessions.num_threads = num_threads;
  options.sessions.max_sessions = max_sessions;
  ConsensusServer server(options);
  TcpTransportOptions tcp_options;
  tcp_options.max_connections = max_connections;
  TcpTransport transport(server, tcp_options);
  CPA_CHECK_OK(transport.Start());
  const std::uint32_t port = transport.port();
  CPA_CHECK_EQ(::write(port_fd, &port, sizeof(port)),
               static_cast<ssize_t>(sizeof(port)));
  ::close(port_fd);
  char byte = 0;
  while (::read(control_fd, &byte, 1) > 0) {
  }
  ::close(control_fd);
  transport.Shutdown();
}

/// Forks `count` workers. MUST run before the parent spawns any thread
/// (fork duplicates only the calling thread; a forked lock holder would
/// deadlock the child, and TSan rejects multi-threaded forks outright).
std::vector<WorkerProcess> SpawnWorkers(std::size_t count,
                                        std::size_t num_threads,
                                        std::size_t max_sessions,
                                        std::size_t max_connections) {
  std::vector<WorkerProcess> fleet;
  fleet.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    int port_pipe[2];
    int control_pipe[2];
    CPA_CHECK_EQ(::pipe(port_pipe), 0);
    CPA_CHECK_EQ(::pipe(control_pipe), 0);
    const pid_t pid = ::fork();
    CPA_CHECK_GE(pid, 0);
    if (pid == 0) {
      ::close(port_pipe[0]);
      ::close(control_pipe[1]);
      // Drop inherited write ends of the siblings' control pipes, or
      // their EOFs never arrive.
      for (const WorkerProcess& sibling : fleet) ::close(sibling.control_fd);
      WorkerMain(port_pipe[1], control_pipe[0], num_threads, max_sessions,
                 max_connections);
      ::_exit(0);
    }
    ::close(port_pipe[1]);
    ::close(control_pipe[0]);
    WorkerProcess worker;
    worker.pid = pid;
    worker.control_fd = control_pipe[1];
    CPA_CHECK_EQ(::read(port_pipe[0], &worker.port, sizeof(worker.port)),
                 static_cast<ssize_t>(sizeof(worker.port)));
    ::close(port_pipe[0]);
    fleet.push_back(worker);
  }
  return fleet;
}

/// Control-pipe EOF → worker drains and exits; reap every pid.
void JoinWorkers(std::vector<WorkerProcess>& fleet) {
  for (WorkerProcess& worker : fleet) ::close(worker.control_fd);
  for (WorkerProcess& worker : fleet) {
    int status = 0;
    CPA_CHECK_EQ(::waitpid(worker.pid, &status, 0), worker.pid);
    CPA_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker " << worker.pid << " died uncleanly";
  }
  fleet.clear();
}

/// Spins up a front listener — over an in-process server (`workers == 0`)
/// or a router across `workers` forked worker processes — and drives
/// `connections` concurrent client threads through it in the given
/// encoding.
TransportResult RunTransport(bool binary, std::size_t connections,
                             std::size_t num_threads, std::size_t workers,
                             const EngineConfig& engine_config,
                             const Dataset& dataset,
                             const std::vector<BatchPlan>& plans) {
  // Fork the fleet before the router/transport/client threads exist.
  std::vector<WorkerProcess> fleet;
  std::unique_ptr<ConsensusServer> server;
  std::unique_ptr<Router> router;
  FrameHandler* handler = nullptr;
  if (workers > 0) {
    fleet = SpawnWorkers(workers, num_threads, connections + 1,
                         connections + 8);
    RouterOptions router_options;
    for (const WorkerProcess& worker : fleet) {
      router_options.workers.push_back(
          StrFormat("127.0.0.1:%u", worker.port));
    }
    router = std::make_unique<Router>(router_options);
    CPA_CHECK_OK(router->Start());
    handler = router.get();
  } else {
    ConsensusServerOptions server_options;
    server_options.sessions.num_threads = num_threads;
    server_options.sessions.max_sessions = connections + 1;
    server = std::make_unique<ConsensusServer>(server_options);
    handler = server.get();
  }

  TcpTransportOptions transport_options;
  transport_options.max_connections = connections + 8;
  TcpTransport transport(*handler, transport_options);
  CPA_CHECK_OK(transport.Start());

  std::vector<ClientStats> stats(connections);
  std::vector<std::thread> clients;
  clients.reserve(connections);
  std::atomic<bool> go{false};
  for (std::size_t s = 0; s < connections; ++s) {
    clients.emplace_back([&, s] {
      auto client = TcpFrameClient::Connect("127.0.0.1", transport.port());
      CPA_CHECK(client.ok()) << client.status().ToString();
      stats[s] = RunClient(std::move(client).value(),
                           StrFormat("stream-%zu", s), engine_config, dataset,
                           plans[s], binary, go);
    });
  }

  // Release the herd only once every connection is established, so the
  // measured window runs at full concurrency from its first request.
  TransportResult result;
  while (transport.num_connections() < connections) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  result.peak_connections = transport.num_connections();
  const Stopwatch wall;
  go.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();
  result.wall_s = wall.ElapsedSeconds();

  if (server != nullptr) {
    CPA_CHECK_EQ(server->sessions().num_sessions(), 0u);
  }
  for (ClientStats& client : stats) {
    result.answers += client.answers;
    result.observe_ms.insert(result.observe_ms.end(), client.observe_ms.begin(),
                             client.observe_ms.end());
    result.snapshot_ms.insert(result.snapshot_ms.end(),
                              client.snapshot_ms.begin(),
                              client.snapshot_ms.end());
    result.poll_ms.insert(result.poll_ms.end(), client.poll_ms.begin(),
                          client.poll_ms.end());
    result.final_predictions.push_back(std::move(client.final_predictions));
  }
  transport.Shutdown();
  result.stats = transport.stats();
  if (router != nullptr) {
    CPA_CHECK_EQ(router->frames_forwarded(), result.observe_ms.size() +
                                                 result.snapshot_ms.size() +
                                                 result.poll_ms.size() +
                                                 3 * connections);
    router->Shutdown();
  }
  JoinWorkers(fleet);
  return result;
}

void PrintOpRow(const char* op, const std::vector<double>& ms) {
  std::printf("%-24s %10.3f %10.3f %10.3f\n", op, Percentile(ms, 0.5),
              Percentile(ms, 0.95), Percentile(ms, 0.99));
}

/// Adds one run's metrics under its prefix: `json_` / `binary_`
/// (single process) or `w<N>_json_` / `w<N>_binary_` (router fleet).
void Report(bench::BenchReport& report, const std::string& prefix,
            const TransportResult& result) {
  const auto key = [&](const char* name) {
    return StrFormat("%s_%s", prefix.c_str(), name);
  };
  report.Add(key("wall"), result.wall_s, "s");
  report.Add(key("answers_per_s"),
             static_cast<double>(result.answers) / result.wall_s, "1/s");
  report.Add(key("peak_connections"),
             static_cast<double>(result.peak_connections), "count");
  report.Add(key("observe_p50"), Percentile(result.observe_ms, 0.5), "ms");
  report.Add(key("observe_p95"), Percentile(result.observe_ms, 0.95), "ms");
  report.Add(key("observe_p99"), Percentile(result.observe_ms, 0.99), "ms");
  report.Add(key("snapshot_p50"), Percentile(result.snapshot_ms, 0.5), "ms");
  report.Add(key("snapshot_p95"), Percentile(result.snapshot_ms, 0.95), "ms");
  report.Add(key("snapshot_p99"), Percentile(result.snapshot_ms, 0.99), "ms");
  report.Add(key("poll_p50"), Percentile(result.poll_ms, 0.5), "ms");
  report.Add(key("poll_p95"), Percentile(result.poll_ms, 0.95), "ms");
  report.Add(key("poll_p99"), Percentile(result.poll_ms, 0.99), "ms");
  // Syscall visibility: how well the transport batches the wire.
  const TcpTransportStats& stats = result.stats;
  report.Add(key("frames_per_recv"),
             stats.recv_calls > 0
                 ? static_cast<double>(stats.frames_in) /
                       static_cast<double>(stats.recv_calls)
                 : 0.0,
             "frames");
  report.Add(key("partial_writes"),
             static_cast<double>(stats.partial_writes), "count");
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchConfig config = bench::ParseBenchConfig(argc, argv, 0.08);
  const auto flags = Flags::Parse(argc, argv);
  CPA_CHECK(flags.ok()) << flags.status().ToString();
  // `--quick` shrinks the run to a CI smoke (the sanitizer jobs drive the
  // whole socket/frame/codec path through it on every change).
  const bool quick = flags.value().GetBool("quick", false);
  std::size_t connections =
      static_cast<std::size_t>(flags.value().GetInt("connections", 100));
  const std::size_t num_threads =
      static_cast<std::size_t>(flags.value().GetInt("num-threads", 2));
  std::size_t batches =
      static_cast<std::size_t>(flags.value().GetInt("batches", 5));
  const std::size_t workers =
      static_cast<std::size_t>(flags.value().GetInt("workers", 2));
  const std::string method = flags.value().GetString("method", "CPA-SVI");
  const std::string adversarial = flags.value().GetString("adversarial", "");
  if (quick) {
    connections = std::min<std::size_t>(connections, 4);
    batches = std::min<std::size_t>(batches, 2);
    config.scale = std::min(config.scale, 0.05);
    config.cpa_iterations = std::min<std::size_t>(config.cpa_iterations, 4);
  }
  CPA_CHECK(connections >= 1 && batches >= 1);

  // The stream every client replays: the paper dataset under
  // session-specific shuffles (default), or one named cell of the
  // adversarial scenario matrix (`--adversarial`), where every client
  // replays the same hostile arrival plan.
  Dataset dataset;
  std::vector<BatchPlan> plans;
  std::string load_label = "replayed paper stream";
  if (!adversarial.empty()) {
    const std::vector<AdversarialScenario> matrix =
        StandardScenarioMatrix(config.seed, quick ? 0.25 : 1.0);
    const AdversarialScenario* scenario = nullptr;
    for (const AdversarialScenario& cell : matrix) {
      if (cell.name == adversarial) scenario = &cell;
    }
    if (scenario == nullptr) {
      std::fprintf(stderr, "unknown --adversarial scenario '%s'; one of:\n",
                   adversarial.c_str());
      for (const AdversarialScenario& cell : matrix) {
        std::fprintf(stderr, "  %s — %s\n", cell.name.c_str(),
                     cell.description.c_str());
      }
      return 1;
    }
    auto stream = GenerateAdversarialStream(scenario->config);
    CPA_CHECK_OK(stream.status());
    dataset = std::move(stream.value().dataset);
    plans.assign(connections, stream.value().plan);
    batches = plans[0].batches.size();
    load_label = StrFormat("adversarial '%s' stream (%.0f%% hostile)",
                           adversarial.c_str(),
                           100.0 * stream.value().AdversarialShare());
  } else {
    dataset = bench::LoadPaperDataset(PaperDatasetId::kTopic, config);
    plans.reserve(connections);
    for (std::size_t s = 0; s < connections; ++s) {
      Rng rng(config.seed + s);
      plans.push_back(MakeArrivalSchedule(dataset.answers, batches, rng));
    }
  }

  bench::PrintHeader(
      "Fig 11 (extension) — TCP server throughput and tail latency",
      StrFormat("%zu concurrent %s streams per run (json, binary) over "
                "framed TCP, %s, sweeps on one shared %zu-thread pool%s",
                connections, method.c_str(), load_label.c_str(), num_threads,
                workers > 0
                    ? StrFormat(", plus a router over %zu forked workers",
                                workers)
                          .c_str()
                    : ""),
      config);

  EngineConfig engine_config = EngineConfig::ForDataset(method, dataset);
  engine_config.cpa.max_iterations = config.cpa_iterations;

  // The encoding axis, single-process (worker count 0) and, unless
  // `--workers 0`, behind a router over the forked fleet.
  struct Run {
    std::string label;   ///< report key prefix
    std::size_t workers;
    bool binary;
    TransportResult result;
  };
  std::vector<Run> runs;
  runs.push_back({"json", 0, false, {}});
  runs.push_back({"binary", 0, true, {}});
  if (workers > 0) {
    runs.push_back({StrFormat("w%zu_json", workers), workers, false, {}});
    runs.push_back({StrFormat("w%zu_binary", workers), workers, true, {}});
  }
  for (Run& run : runs) {
    run.result = RunTransport(run.binary, connections, num_threads,
                              run.workers, engine_config, dataset, plans);
  }

  // Neither the transport encoding nor the deployment shape may change
  // the consensus: same stream → same predictions.
  for (std::size_t r = 1; r < runs.size(); ++r) {
    CPA_CHECK_EQ(runs[0].result.final_predictions.size(),
                 runs[r].result.final_predictions.size());
    for (std::size_t s = 0; s < runs[0].result.final_predictions.size(); ++s) {
      CPA_CHECK(runs[0].result.final_predictions[s] ==
                runs[r].result.final_predictions[s])
          << "session " << s << ": runs json and " << runs[r].label
          << " disagree";
    }
  }

  const auto rate = [](const TransportResult& result) {
    return static_cast<double>(result.answers) / result.wall_s;
  };
  for (const Run& run : runs) {
    std::printf("\n-- %s: %zu connections, %zu answers, %.2fs --\n",
                run.label.c_str(), connections, run.result.answers,
                run.result.wall_s);
    std::printf("%-24s %10s %10s %10s\n", "op (ms)", "p50", "p95", "p99");
    PrintOpRow("observe", run.result.observe_ms);
    PrintOpRow("snapshot (refresh)", run.result.snapshot_ms);
    PrintOpRow("poll (cached)", run.result.poll_ms);
    std::printf("%-24s %10.0f\n", "answers/s", rate(run.result));
    const TcpTransportStats& ts = run.result.stats;
    std::printf("%-24s %10.1f %10llu\n", "frames/recv, partial",
                ts.recv_calls > 0 ? static_cast<double>(ts.frames_in) /
                                        static_cast<double>(ts.recv_calls)
                                  : 0.0,
                static_cast<unsigned long long>(ts.partial_writes));
  }
  std::printf("\nbinary vs json answers/s: %.2fx\n",
              rate(runs[1].result) / rate(runs[0].result));
  if (workers > 0) {
    std::printf("router (%zu workers) vs single binary answers/s: %.2fx\n",
                workers, rate(runs[3].result) / rate(runs[1].result));
  }

  bench::BenchReport report("fig11_server_throughput", config);
  report.Add("connections", static_cast<double>(connections), "count");
  report.Add("shared_pool_threads", static_cast<double>(num_threads), "count");
  report.Add("batches_per_session", static_cast<double>(batches), "count");
  report.Add("router_workers", static_cast<double>(workers), "count");
  report.Add("adversarial", adversarial.empty() ? 0.0 : 1.0, "bool");
  report.Add("answers_per_transport",
             static_cast<double>(runs[0].result.answers), "count");
  for (const Run& run : runs) Report(report, run.label, run.result);
  report.Add("binary_speedup_answers_per_s",
             rate(runs[1].result) / rate(runs[0].result), "x");
  if (workers > 0) {
    report.Add("router_binary_speedup_answers_per_s",
               rate(runs[3].result) / rate(runs[1].result), "x");
  }
  CPA_CHECK_OK(report.Write());
  return 0;
}
