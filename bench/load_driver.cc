#include "bench/load_driver.h"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "server/protocol.h"
#include "server/tcp_client.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_utils.h"

namespace cpa::bench {
namespace {

using server::Frame;
using server::FrameKind;
using server::TcpFrameClient;

/// Child-process body of one fleet worker.
void ServeUntilControlEof(int port_fd, int control_fd,
                          const ConsensusServerOptions& server_options,
                          const TcpTransportOptions& tcp_options) {
  ConsensusServer server(server_options);
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

/// Extracts the predictions array of a JSON snapshot/finalize reply.
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

/// One client's share of a replay.
struct ClientSamples {
  std::size_t answers = 0;
  std::vector<double> observe_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> poll_ms;
  std::vector<LabelSet> final_predictions;
};

/// One session over one connection: open → wait for `go` → (observe +
/// refresh snapshot + cached poll) per batch → finalize → close.
ClientSamples RunSession(TcpFrameClient& client, const std::string& session,
                         const EngineConfig& config, const Dataset& dataset,
                         const BatchPlan& plan, bool binary,
                         const std::atomic<bool>& go) {
  ClientSamples samples;
  Frame reply;
  TimedRoundtrip(client, FrameKind::kJson, OpenRequest(session, config), reply);
  CheckJsonOk(reply, "open");
  while (!go.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string refresh =
      StrFormat("{\"op\":\"snapshot\",\"session\":\"%s\"}", session.c_str());
  const std::string poll = StrFormat(
      "{\"op\":\"snapshot\",\"session\":\"%s\",\"refresh\":false}", session.c_str());
  std::vector<Answer> batch_answers;
  for (const auto& batch : plan.batches) {
    batch_answers.clear();
    batch_answers.reserve(batch.size());
    for (std::size_t index : batch) {
      batch_answers.push_back(dataset.answers.answer(index));
    }
    if (binary) {
      samples.observe_ms.push_back(TimedRoundtrip(
          client, FrameKind::kBinary,
          server::EncodeObserveRequest(session, batch_answers), reply));
      CheckBinaryOk(reply, "observe");
      samples.snapshot_ms.push_back(TimedRoundtrip(
          client, FrameKind::kBinary,
          server::EncodeSnapshotRequest(session, /*refresh=*/true,
                                        /*include_predictions=*/true),
          reply));
      CheckBinaryOk(reply, "snapshot");
      samples.poll_ms.push_back(TimedRoundtrip(
          client, FrameKind::kBinary,
          server::EncodeSnapshotRequest(session, /*refresh=*/false,
                                        /*include_predictions=*/true),
          reply));
      CheckBinaryOk(reply, "poll");
    } else {
      samples.observe_ms.push_back(TimedRoundtrip(
          client, FrameKind::kJson,
          server::MakeObserveRequest(session, batch_answers), reply));
      CheckJsonOk(reply, "observe");
      samples.snapshot_ms.push_back(
          TimedRoundtrip(client, FrameKind::kJson, refresh, reply));
      CheckJsonOk(reply, "snapshot");
      samples.poll_ms.push_back(
          TimedRoundtrip(client, FrameKind::kJson, poll, reply));
      CheckJsonOk(reply, "poll");
    }
    samples.answers += batch.size();
  }

  if (binary) {
    TimedRoundtrip(client, FrameKind::kBinary,
                   server::EncodeFinalizeRequest(session, true), reply);
    samples.final_predictions = CheckBinaryOk(reply, "finalize").predictions;
  } else {
    TimedRoundtrip(
        client, FrameKind::kJson,
        StrFormat("{\"op\":\"finalize\",\"session\":\"%s\"}", session.c_str()),
        reply);
    CheckJsonOk(reply, "finalize");
    samples.final_predictions = JsonPredictions(reply);
  }
  TimedRoundtrip(
      client, FrameKind::kJson,
      StrFormat("{\"op\":\"close\",\"session\":\"%s\"}", session.c_str()), reply);
  CheckJsonOk(reply, "close");
  return samples;
}

void Append(std::vector<double>& into, const std::vector<double>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

}  // namespace

FleetWorker ForkFleetWorker(const ConsensusServerOptions& server_options,
                            const TcpTransportOptions& tcp_options,
                            const std::vector<FleetWorker>& siblings) {
  int port_pipe[2];
  int control_pipe[2];
  CPA_CHECK_EQ(::pipe(port_pipe), 0);
  CPA_CHECK_EQ(::pipe(control_pipe), 0);
  const pid_t pid = ::fork();
  CPA_CHECK_GE(pid, 0);
  if (pid == 0) {
    ::close(port_pipe[0]);
    ::close(control_pipe[1]);
    // A stopped or killed sibling's fd slot (-1) may have been reused by
    // this very spawn's pipes — closing it would sever our own port pipe.
    for (const FleetWorker& sibling : siblings) {
      if (sibling.control_fd >= 0) ::close(sibling.control_fd);
    }
    ServeUntilControlEof(port_pipe[1], control_pipe[0], server_options, tcp_options);
    ::_exit(0);
  }
  ::close(port_pipe[1]);
  ::close(control_pipe[0]);
  FleetWorker worker;
  worker.pid = pid;
  worker.control_fd = control_pipe[1];
  CPA_CHECK_EQ(::read(port_pipe[0], &worker.port, sizeof(worker.port)),
               static_cast<ssize_t>(sizeof(worker.port)));
  ::close(port_pipe[0]);
  return worker;
}

void StopFleetWorker(FleetWorker& worker) {
  ::close(worker.control_fd);
  worker.control_fd = -1;
  int status = 0;
  CPA_CHECK_EQ(::waitpid(worker.pid, &status, 0), worker.pid);
  CPA_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "worker " << worker.pid << " died uncleanly";
  worker.pid = -1;
}

std::string OpenRequest(const std::string& session, const EngineConfig& config) {
  JsonValue::Object open;
  open["op"] = JsonValue(std::string("open"));
  open["session"] = JsonValue(session);
  open["config"] = config.ToJson();
  return JsonValue(std::move(open)).DumpCompact();
}

void CheckJsonOk(const Frame& frame, const char* what) {
  CPA_CHECK(frame.kind == FrameKind::kJson) << what;
  const auto parsed = JsonValue::Parse(frame.payload);
  CPA_CHECK(parsed.ok()) << what << ": " << frame.payload;
  const JsonValue* ok = parsed.value().Find("ok");
  CPA_CHECK(ok != nullptr && ok->bool_value()) << what << ": " << frame.payload;
}

server::BinaryResponse CheckBinaryOk(const Frame& frame, const char* what) {
  CPA_CHECK(frame.kind == FrameKind::kBinary) << what;
  auto decoded = server::DecodeBinaryResponse(frame.payload);
  CPA_CHECK(decoded.ok()) << what << ": " << decoded.status().ToString();
  CPA_CHECK(decoded.value().ok) << what << ": " << decoded.value().error.ToString();
  return std::move(decoded).value();
}

ReplayResult ReplaySessions(FrameHandler& handler, const EngineConfig& config,
                            const Dataset& dataset,
                            const std::vector<BatchPlan>& plans, bool binary) {
  const std::size_t connections = plans.size();
  TcpTransportOptions transport_options;
  transport_options.max_connections = connections + 8;
  TcpTransport transport(handler, transport_options);
  CPA_CHECK_OK(transport.Start());

  std::vector<ClientSamples> samples(connections);
  std::vector<std::thread> clients;
  clients.reserve(connections);
  std::atomic<bool> go{false};
  for (std::size_t s = 0; s < connections; ++s) {
    clients.emplace_back([&, s] {
      auto client = TcpFrameClient::Connect("127.0.0.1", transport.port());
      CPA_CHECK(client.ok()) << client.status().ToString();
      samples[s] = RunSession(client.value(), StrFormat("stream-%zu", s), config,
                              dataset, plans[s], binary, go);
    });
  }

  // Release the herd only once every connection is established, so the
  // measured window runs at full concurrency from its first request.
  ReplayResult result;
  while (transport.num_connections() < connections) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  result.peak_connections = transport.num_connections();
  const Stopwatch wall;
  go.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();
  result.wall_s = wall.ElapsedSeconds();

  for (ClientSamples& client : samples) {
    result.answers += client.answers;
    Append(result.observe_ms, client.observe_ms);
    Append(result.snapshot_ms, client.snapshot_ms);
    Append(result.poll_ms, client.poll_ms);
    result.final_predictions.push_back(std::move(client.final_predictions));
  }
  transport.Shutdown();
  result.stats = transport.stats();
  return result;
}

void AddReplayRows(BenchReport& report, const std::string& prefix,
                   const ReplayResult& result) {
  const auto key = [&](const char* name) {
    return StrFormat("%s_%s", prefix.c_str(), name);
  };
  const auto add_percentiles = [&](const char* op, const std::vector<double>& ms) {
    for (const auto& [suffix, p] :
         {std::pair{"p50", 0.5}, std::pair{"p95", 0.95}, std::pair{"p99", 0.99}}) {
      report.Add(StrFormat("%s_%s_%s", prefix.c_str(), op, suffix),
                 Percentile(ms, p), "ms");
    }
  };
  report.Add(key("wall"), result.wall_s, "s");
  report.Add(key("answers_per_s"),
             static_cast<double>(result.answers) / result.wall_s, "1/s");
  report.Add(key("peak_connections"),
             static_cast<double>(result.peak_connections), "count");
  add_percentiles("observe", result.observe_ms);
  add_percentiles("snapshot", result.snapshot_ms);
  add_percentiles("poll", result.poll_ms);
  // Syscall visibility: how well the transport batches the wire.
  const TcpTransportStats& stats = result.stats;
  report.Add(key("frames_per_recv"),
             stats.recv_calls > 0 ? static_cast<double>(stats.frames_in) /
                                        static_cast<double>(stats.recv_calls)
                                  : 0.0,
             "frames");
  report.Add(key("partial_writes"), static_cast<double>(stats.partial_writes),
             "count");
}

}  // namespace cpa::bench
