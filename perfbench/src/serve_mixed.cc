#include "serve_mixed.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <utility>

#include "engine/engine_registry.h"
#include "eval/metrics.h"
#include "server/binary_codec.h"
#include "simulation/dataset_factory.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace perfbench {

using cpa::server::Frame;
using cpa::server::FrameKind;

ServeMixedInputs MakeServeMixed(std::uint64_t seed) {
  ServeMixedInputs inputs;
  inputs.seed = seed;
  cpa::FactoryOptions options;
  options.seed = kTopicDatasetSeed;
  options.scale = 0.35;
  auto dataset = cpa::MakePaperDataset(cpa::PaperDatasetId::kTopic, options);
  CPA_CHECK(dataset.ok()) << dataset.status().ToString();
  inputs.dataset = std::move(dataset).value();
  inputs.config = cpa::EngineConfig::ForDataset("CPA-SVI", inputs.dataset);
  return inputs;
}

cpa::BatchPlan ArrivalPlan(const ServeMixedInputs& inputs, std::uint64_t stream) {
  cpa::Rng rng(inputs.seed * 1'000'003ULL + stream);
  return cpa::MakeArrivalSchedule(inputs.dataset.answers, kArrivalBatches, rng);
}

std::string OpenRequest(const std::string& session, const cpa::EngineConfig& config) {
  cpa::JsonValue::Object open;
  open["op"] = cpa::JsonValue(std::string("open"));
  open["session"] = cpa::JsonValue(session);
  open["config"] = config.ToJson();
  return cpa::JsonValue(std::move(open)).DumpCompact();
}

std::vector<cpa::Answer> BatchAnswers(const cpa::Dataset& dataset,
                                      const std::vector<std::size_t>& batch) {
  std::vector<cpa::Answer> answers;
  answers.reserve(batch.size());
  for (std::size_t index : batch) answers.push_back(dataset.answers.answer(index));
  return answers;
}

// ---------------------------------------------------------------------------
// FrameConn
// ---------------------------------------------------------------------------

cpa::Result<FrameConn> FrameConn::Connect(std::uint16_t port) {
  FrameConn conn;
  conn.fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn.fd_ < 0) return cpa::Status::IOError(std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(conn.fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return cpa::Status::IOError(cpa::StrFormat("connect: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(conn.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

FrameConn::FrameConn(FrameConn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      frames_sent_(other.frames_sent_),
      decoder_(std::move(other.decoder_)) {}

FrameConn& FrameConn::operator=(FrameConn&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    frames_sent_ = other.frames_sent_;
    decoder_ = std::move(other.decoder_);
  }
  return *this;
}

void FrameConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

cpa::Status FrameConn::Send(FrameKind kind, std::string_view payload) {
  std::string bytes;
  cpa::server::AppendFrame(bytes, kind, payload);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return cpa::Status::IOError(cpa::StrFormat("send: %s", std::strerror(errno)));
    sent += static_cast<std::size_t>(n);
  }
  ++frames_sent_;
  return cpa::Status::OK();
}

cpa::Result<std::optional<Frame>> FrameConn::ReadAvailable() {
  const auto next = [this]() -> cpa::Result<std::optional<Frame>> {
    auto item = decoder_.Next();
    if (!item) return std::optional<Frame>();
    if (!item->error.ok()) return item->error;
    return std::optional<Frame>(std::move(item->frame));
  };
  CPA_ASSIGN_OR_RETURN(std::optional<Frame> buffered, next());
  if (buffered) return buffered;
  char buffer[64 * 1024];
  ssize_t n = 0;
  do {
    n = ::recv(fd_, buffer, sizeof(buffer), 0);
  } while (n < 0 && errno == EINTR);
  if (n == 0) return cpa::Status::IOError("server closed the connection");
  if (n < 0) return cpa::Status::IOError(cpa::StrFormat("recv: %s", std::strerror(errno)));
  decoder_.Append(std::string_view(buffer, static_cast<std::size_t>(n)));
  return next();
}

cpa::Result<Frame> FrameConn::Read() {
  for (;;) {
    CPA_ASSIGN_OR_RETURN(std::optional<Frame> frame, ReadAvailable());
    if (frame) return std::move(*frame);
  }
}

cpa::Result<Frame> FrameConn::Roundtrip(FrameKind kind, std::string_view payload) {
  CPA_RETURN_NOT_OK(Send(kind, payload));
  return Read();
}

// ---------------------------------------------------------------------------
// ServerProcess
// ---------------------------------------------------------------------------

cpa::Result<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(const std::string& path) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return cpa::Status::IOError("pipe2 failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return cpa::Status::IOError("fork failed");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The server dies with
    // the benchmark even if the benchmark is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int null_fd = ::open("/dev/null", O_RDWR);
    if (null_fd >= 0) {
      ::dup2(null_fd, 0);
      ::dup2(null_fd, 1);
    }
    ::dup2(pipe_fds[1], 2);
    char* const argv[] = {const_cast<char*>(path.c_str()), const_cast<char*>("--tcp"),
                          const_cast<char*>("--num-threads"), const_cast<char*>("2"),
                          nullptr};
    ::execv(path.c_str(), argv);
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->stderr_fd_ = pipe_fds[0];

  // Wait (bounded) for "cpa_server: listening on 127.0.0.1:<port> (...".
  const std::string marker = "listening on 127.0.0.1:";
  const double deadline = NowMs() + 30'000.0;
  while (server->port_ == 0) {
    const double left = deadline - NowMs();
    if (left <= 0) return cpa::Status::IOError("cpa_server did not announce a port");
    pollfd fd{server->stderr_fd_, POLLIN, 0};
    if (::poll(&fd, 1, static_cast<int>(left) + 1) <= 0) continue;
    char buffer[4096];
    const ssize_t n = ::read(server->stderr_fd_, buffer, sizeof(buffer));
    if (n <= 0) {
      return cpa::Status::IOError("cpa_server exited before listening: " +
                                  server->stderr_text_);
    }
    server->stderr_text_.append(buffer, static_cast<std::size_t>(n));
    const std::size_t at = server->stderr_text_.find(marker);
    const std::size_t eol = server->stderr_text_.find(' ', at + marker.size());
    if (at != std::string::npos && eol != std::string::npos) {
      server->port_ = static_cast<std::uint16_t>(
          std::stoul(server->stderr_text_.substr(at + marker.size())));
    }
  }
  return server;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
}

cpa::Result<double> ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads "<n> kB"
    }
  }
  return cpa::Status::NotFound("no VmHWM line for the server process");
}

cpa::Result<std::string> ServerProcess::Stop() {
  if (pid_ <= 0) return cpa::Status::FailedPrecondition("server already stopped");
  ::kill(pid_, SIGTERM);
  char buffer[4096];
  const double deadline = NowMs() + 60'000.0;
  for (;;) {
    const double left = deadline - NowMs();
    if (left <= 0) break;  // the destructor kills it
    pollfd fd{stderr_fd_, POLLIN, 0};
    if (::poll(&fd, 1, static_cast<int>(left) + 1) <= 0) continue;
    const ssize_t n = ::read(stderr_fd_, buffer, sizeof(buffer));
    if (n <= 0) break;
    stderr_text_.append(buffer, static_cast<std::size_t>(n));
  }
  int status = 0;
  if (NowMs() >= deadline) ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return cpa::Status::Internal("cpa_server did not exit cleanly: " + stderr_text_);
  }
  return stderr_text_;
}

// ---------------------------------------------------------------------------
// The client mix
// ---------------------------------------------------------------------------

namespace {

/// Error text of a JSON reply that is not `"ok":true` ("" when ok).
std::string JsonError(const cpa::Result<Frame>& reply, const char* what) {
  if (!reply.ok()) return std::string(what) + ": " + reply.status().ToString();
  const auto parsed = cpa::JsonValue::Parse(reply.value().payload);
  const cpa::JsonValue* ok = parsed.ok() ? parsed.value().Find("ok") : nullptr;
  if (ok == nullptr || !ok->bool_value()) {
    return std::string(what) + ": " + reply.value().payload;
  }
  return "";
}

/// Decodes a binary reply; `error` gets a message when it is not ok.
cpa::server::BinaryResponse BinaryReply(const cpa::Result<Frame>& reply, const char* what,
                                        std::string& error) {
  if (!reply.ok()) {
    error = std::string(what) + ": " + reply.status().ToString();
    return {};
  }
  auto decoded = cpa::server::DecodeBinaryResponse(reply.value().payload);
  if (!decoded.ok()) {
    error = std::string(what) + ": " + decoded.status().ToString();
    return {};
  }
  if (!decoded.value().ok) {
    error = std::string(what) + ": " + decoded.value().error.ToString();
  }
  return std::move(decoded).value();
}

/// Opens a catalog session and publishes its snapshot (all batches, one
/// refresh) — the sessions the readers poll.
void LoadCatalog(FrameConn& conn, const ServeMixedInputs& inputs, std::size_t c,
                 RunResult& result) {
  const std::string id = cpa::StrFormat("catalog-%zu", c);
  result.CountOp(JsonError(conn.Roundtrip(FrameKind::kJson, OpenRequest(id, inputs.config)),
                           "catalog open"));
  for (const auto& batch : ArrivalPlan(inputs, c).batches) {
    std::string error;
    BinaryReply(conn.Roundtrip(FrameKind::kBinary,
                               cpa::server::EncodeObserveRequest(
                                   id, BatchAnswers(inputs.dataset, batch))),
                "catalog observe", error);
    result.CountOp(error);
  }
  std::string error;
  BinaryReply(conn.Roundtrip(FrameKind::kBinary,
                             cpa::server::EncodeSnapshotRequest(id, true, true)),
              "catalog refresh", error);
  result.CountOp(error);
}

/// Samples stamped with when they completed, so a run can be cut into
/// chunks afterwards.
struct StampedSamples {
  std::vector<double> at_ms;
  std::vector<double> values;

  void Add(double at, double value) {
    at_ms.push_back(at);
    values.push_back(value);
  }
};

/// One writer thread's haul.
struct WriterOutcome {
  RunResult result;
  SpanLog spans;
  StampedSamples observe_ms;
  StampedSamples refresh_ms;
  StampedSamples consensus_s;
  StampedSamples acked_answers;  ///< answers per acknowledged observe
  std::vector<double> f1;
  double finished_ms = 0.0;
  /// The first finalized session: its stream id and final predictions.
  std::optional<std::uint64_t> checked_stream;
  std::vector<cpa::LabelSet> checked_predictions;
};

/// Closed loop: sessions back to back until `end_ms`.
void RunWriter(FrameConn& conn, const ServeMixedInputs& inputs, std::size_t writer,
               std::uint64_t& next_session, double end_ms, bool trace,
               WriterOutcome& out) {
  while (NowMs() < end_ms) {
    const std::uint64_t k = next_session++;
    const std::uint64_t stream = 100 + 2 * k + writer;
    const std::string id = cpa::StrFormat("w%zu-%llu", writer,
                                          static_cast<unsigned long long>(k));
    const cpa::BatchPlan plan = ArrivalPlan(inputs, stream);
    std::vector<Span> calls;
    std::string error = JsonError(
        conn.Roundtrip(FrameKind::kJson, OpenRequest(id, inputs.config)), "open");
    out.result.CountOp(error);
    if (!error.empty()) return;

    const auto timed = [&](const char* name, FrameKind kind, const std::string& payload,
                           StampedSamples* samples) {
      const double start = NowMs();
      auto reply = conn.Roundtrip(kind, payload);
      const double end = NowMs();
      if (samples != nullptr) samples->Add(end, end - start);
      if (trace) calls.push_back({name, start, end, -1, stream});
      return reply;
    };
    const double first = NowMs();
    std::uint64_t answers = 0;
    for (const auto& batch : plan.batches) {
      std::string observe_error;
      const auto ack = BinaryReply(
          timed("client.observe", FrameKind::kBinary,
                cpa::server::EncodeObserveRequest(id, BatchAnswers(inputs.dataset, batch)),
                &out.observe_ms),
          "observe", observe_error);
      out.result.CountOp(observe_error);
      if (!observe_error.empty()) return;
      out.acked_answers.Add(out.observe_ms.at_ms.back(),
                            static_cast<double>(ack.ack.answers_seen - answers));
      answers = ack.ack.answers_seen;
      std::string refresh_error;
      BinaryReply(timed("client.refresh", FrameKind::kBinary,
                        cpa::server::EncodeSnapshotRequest(id, true, true),
                        &out.refresh_ms),
                  "refresh", refresh_error);
      out.result.CountOp(refresh_error);
      if (!refresh_error.empty()) return;
    }
    std::string finalize_error;
    cpa::server::BinaryResponse final_reply =
        BinaryReply(timed("client.finalize", FrameKind::kBinary,
                          cpa::server::EncodeFinalizeRequest(id, true), nullptr),
                    "finalize", finalize_error);
    const double last = NowMs();
    out.result.CountOp(finalize_error);
    if (!finalize_error.empty()) return;
    error = JsonError(conn.Roundtrip(FrameKind::kJson,
                                     cpa::StrFormat("{\"op\":\"close\",\"session\":\"%s\"}",
                                                    id.c_str())),
                      "close");
    out.result.CountOp(error);

    if (answers != plan.TotalAnswers()) {
      out.result.Fail(cpa::StrFormat("session %s acknowledged %llu of %zu answers",
                                     id.c_str(), static_cast<unsigned long long>(answers),
                                     plan.TotalAnswers()));
    }
    out.consensus_s.Add(last, (last - first) / 1e3);
    out.f1.push_back(
        cpa::ComputeSetMetrics(final_reply.predictions, inputs.dataset.ground_truth).F1());
    if (!out.checked_stream) {
      out.checked_stream = stream;
      out.checked_predictions = std::move(final_reply.predictions);
    }
    if (trace) {
      const std::int64_t parent = out.spans.Record("client.session", first, last, -1, stream);
      for (const Span& call : calls) {
        out.spans.Record(call.name, call.start_ms, call.end_ms, parent, stream);
      }
    }
  }
  out.finished_ms = NowMs();
}

/// One open-loop reader connection.
struct Reader {
  FrameConn* conn = nullptr;
  std::string payload;
  OpenLoopSchedule schedule;
  std::uint64_t next = 0;
  bool in_flight = false;
  double sent_ms = 0.0;
};

/// Keeps every reader on its schedule until `stop()` says so and nothing
/// is in flight. Runs on the calling (timing) thread.
template <typename Stop>
void RunReaders(std::vector<Reader>& readers, std::size_t num_items, bool trace,
                Stop&& stop, std::vector<OpenLoopRecord>& records, SpanLog& spans,
                RunResult& result) {
  for (;;) {
    double now = NowMs();
    const bool stopping = stop();
    bool any_in_flight = false;
    double next_due = now + 1.0;
    for (Reader& reader : readers) {
      if (!reader.in_flight && !stopping && now >= reader.schedule.DueMs(reader.next)) {
        const cpa::Status sent = reader.conn->Send(FrameKind::kBinary, reader.payload);
        result.CountOp(sent.ok() ? "" : "poll send: " + sent.ToString());
        if (!sent.ok()) return;
        reader.sent_ms = now;
        reader.in_flight = true;
      }
      if (reader.in_flight) {
        any_in_flight = true;
      } else if (!stopping) {
        next_due = std::min(next_due, reader.schedule.DueMs(reader.next));
      }
    }
    if (stopping && !any_in_flight) return;

    pollfd fds[kReaderConnections];
    nfds_t count = 0;
    for (Reader& reader : readers) {
      if (reader.in_flight) fds[count++] = {reader.conn->fd(), POLLIN, 0};
    }
    const double wait_ms = std::max(0.0, next_due - now);
    timespec timeout{static_cast<time_t>(wait_ms / 1e3),
                     static_cast<long>(std::fmod(wait_ms, 1e3) * 1e6)};
    if (::ppoll(fds, count, &timeout, nullptr) <= 0) continue;
    for (Reader& reader : readers) {
      if (!reader.in_flight) continue;
      bool readable = false;
      for (nfds_t f = 0; f < count; ++f) {
        if (fds[f].fd == reader.conn->fd() && (fds[f].revents & (POLLIN | POLLHUP | POLLERR))) {
          readable = true;
        }
      }
      if (!readable) continue;
      auto frame = reader.conn->ReadAvailable();
      if (frame.ok() && !frame.value()) continue;  // partial frame
      now = NowMs();
      OpenLoopRecord record{reader.schedule.DueMs(reader.next), reader.sent_ms, now};
      records.push_back(record);
      if (trace) spans.Record("client.poll", record.due_ms, record.done_ms, -1, 0);
      std::string error;
      const cpa::Result<Frame> reply =
          frame.ok() ? cpa::Result<Frame>(std::move(*frame.value())) : frame.status();
      const auto decoded = BinaryReply(reply, "poll", error);
      if (error.empty() &&
          (!decoded.has_predictions || decoded.predictions.size() != num_items)) {
        error = "poll: reply without the catalog's predictions";
      }
      result.CountOp(error);
      if (!frame.ok()) return;
      reader.in_flight = false;
      ++reader.next;
    }
  }
}

/// Replays one writer session's schedule through an in-process engine
/// (observe, refresh per batch, finalize) and returns its predictions.
cpa::Result<std::vector<cpa::LabelSet>> ReplayInProcess(const ServeMixedInputs& inputs,
                                                        const cpa::BatchPlan& plan) {
  CPA_ASSIGN_OR_RETURN(std::unique_ptr<cpa::ConsensusEngine> engine,
                       cpa::EngineRegistry::Global().Open(inputs.config));
  cpa::AnswerMatrix stream(inputs.dataset.num_items(), inputs.dataset.num_workers());
  for (const auto& batch : plan.batches) {
    std::vector<std::size_t> indices;
    for (std::size_t index : batch) {
      const cpa::Answer& answer = inputs.dataset.answers.answer(index);
      indices.push_back(stream.num_answers());
      CPA_RETURN_NOT_OK(stream.Add(answer.item, answer.worker, answer.labels));
    }
    CPA_RETURN_NOT_OK(engine->Observe({&stream, indices}));
    CPA_RETURN_NOT_OK(engine->Snapshot().status());
  }
  CPA_ASSIGN_OR_RETURN(cpa::SharedSnapshot final_snapshot, engine->Finalize());
  return final_snapshot->predictions;
}

}  // namespace

ServeMixedOutcome RunServeMixed(const ServeMixedInputs& inputs, const RunOptions& options,
                                double seconds, bool split_trace, SpanLog* spans,
                                RunResult& result) {
  constexpr std::size_t kSetups = 5;
  ServeMixedOutcome outcome;
  std::unique_ptr<ServerProcess> server;
  std::vector<FrameConn> readers_conns;
  for (std::size_t setup = 0; setup < kSetups; ++setup) {
    if (server != nullptr) {
      readers_conns.clear();
      auto stopped = server->Stop();
      if (!stopped.ok()) result.Fail(stopped.status().ToString());
      server.reset();
    }
    const double start = NowMs();
    auto spawned = ServerProcess::Spawn(options.server_path);
    result.CountOp(spawned.ok() ? "" : "spawn: " + spawned.status().ToString());
    if (!spawned.ok()) return outcome;
    server = std::move(spawned).value();
    for (std::size_t c = 0; c < kReaderConnections; ++c) {
      auto conn = FrameConn::Connect(server->port());
      result.CountOp(conn.ok() ? "" : "connect: " + conn.status().ToString());
      if (!conn.ok()) return outcome;
      readers_conns.push_back(std::move(conn).value());
      LoadCatalog(readers_conns.back(), inputs, c, result);
    }
    outcome.samples.setup_s.push_back((NowMs() - start) / 1e3);
  }
  if (!result.correct) return outcome;

  std::vector<FrameConn> writer_conns;
  for (std::size_t w = 0; w < kWriterConnections; ++w) {
    auto conn = FrameConn::Connect(server->port());
    result.CountOp(conn.ok() ? "" : "connect: " + conn.status().ToString());
    if (!conn.ok()) return outcome;
    writer_conns.push_back(std::move(conn).value());
  }

  std::vector<Reader> readers(kReaderConnections);
  for (std::size_t r = 0; r < kReaderConnections; ++r) {
    readers[r].conn = &readers_conns[r];
    readers[r].payload = cpa::server::EncodeSnapshotRequest(
        cpa::StrFormat("catalog-%zu", r), /*refresh=*/false, /*include_predictions=*/true);
    readers[r].schedule.interval_ms = kPollIntervalMs;
    readers[r].schedule.offset_ms =
        kPollIntervalMs * static_cast<double>(r) / static_cast<double>(kReaderConnections);
  }

  SpanLog reader_spans;
  std::vector<OpenLoopRecord> records;
  std::vector<WriterOutcome> writers(kWriterConnections);
  std::vector<std::uint64_t> next_session(kWriterConnections, 0);
  const std::size_t windows = split_trace ? 2 : 1;
  const double window_s = seconds / static_cast<double>(windows);
  const double measure_start = NowMs();
  double measure_end = measure_start;
  for (std::size_t window = 0; window < windows; ++window) {
    const bool trace = split_trace && window == 1;
    std::vector<std::size_t> sessions_before;
    for (const WriterOutcome& w : writers) {
      sessions_before.push_back(w.consensus_s.values.size());
    }
    const double start = NowMs();
    const double end = start + window_s * 1e3;
    for (Reader& reader : readers) {
      reader.schedule.start_ms = start;
      reader.next = 0;
    }
    std::atomic<std::size_t> writers_done{0};
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kWriterConnections; ++w) {
      threads.emplace_back([&, w] {
        RunWriter(writer_conns[w], inputs, w, next_session[w], end, trace, writers[w]);
        writers_done.fetch_add(1);
      });
    }
    RunReaders(
        readers, inputs.dataset.num_items(), trace,
        [&] { return writers_done.load() == kWriterConnections && NowMs() >= end; },
        records, reader_spans, result);
    for (std::thread& thread : threads) thread.join();
    measure_end = NowMs();
    std::vector<double> window_consensus;
    for (std::size_t w = 0; w < kWriterConnections; ++w) {
      const auto& sessions = writers[w].consensus_s.values;
      window_consensus.insert(window_consensus.end(),
                              sessions.begin() + static_cast<std::ptrdiff_t>(sessions_before[w]),
                              sessions.end());
    }
    if (split_trace) {
      (trace ? outcome.traced_consensus_s : outcome.untraced_consensus_s) =
          Median(window_consensus);
    }
  }

  auto rss = server->PeakRssMb();
  if (rss.ok()) outcome.samples.peak_rss_mb = rss.value();
  std::uint64_t frames_sent = 0;
  for (FrameConn& conn : readers_conns) frames_sent += conn.frames_sent();
  for (FrameConn& conn : writer_conns) frames_sent += conn.frames_sent();
  readers_conns.clear();
  writer_conns.clear();
  auto stopped = server->Stop();
  server.reset();
  if (!stopped.ok()) {
    result.Fail(stopped.status().ToString());
  } else {
    auto stats = ParseServerStats(stopped.value());
    if (!stats.ok()) {
      result.Fail(stats.status().ToString());
    } else {
      outcome.stats = stats.value();
      if (outcome.stats.framing_errors != 0) {
        result.Fail(cpa::StrFormat("server saw %llu framing errors",
                                   static_cast<unsigned long long>(
                                       outcome.stats.framing_errors)));
      }
      if (outcome.stats.frames_in != frames_sent) {
        result.Fail(cpa::StrFormat("server counted %llu frames in, client sent %llu",
                                   static_cast<unsigned long long>(outcome.stats.frames_in),
                                   static_cast<unsigned long long>(frames_sent)));
      }
    }
  }

  // The run, cut into chunks of about kChunkSeconds by completion time.
  const std::size_t num_chunks =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds / kChunkSeconds)));
  const double chunk_ms = (measure_end - measure_start) / static_cast<double>(num_chunks);
  outcome.chunks.assign(num_chunks, {});
  const auto chunk_of = [&](double at_ms) -> EndToEndSamples& {
    const double index = std::floor((at_ms - measure_start) / chunk_ms);
    return outcome.chunks[static_cast<std::size_t>(
        std::clamp(index, 0.0, static_cast<double>(num_chunks - 1)))];
  };
  const auto spread = [&](const StampedSamples& stamped, auto member) {
    for (std::size_t i = 0; i < stamped.values.size(); ++i) {
      (chunk_of(stamped.at_ms[i]).*member).push_back(stamped.values[i]);
      (outcome.samples.*member).push_back(stamped.values[i]);
    }
  };
  for (WriterOutcome& w : writers) {
    result.Merge(w.result);
    spread(w.observe_ms, &EndToEndSamples::observe_ms);
    spread(w.refresh_ms, &EndToEndSamples::refresh_ms);
    spread(w.consensus_s, &EndToEndSamples::consensus_s);
    for (std::size_t i = 0; i < w.acked_answers.values.size(); ++i) {
      const auto answers = static_cast<std::uint64_t>(w.acked_answers.values[i]);
      chunk_of(w.acked_answers.at_ms[i]).answers += answers;
      outcome.samples.answers += answers;
    }
    outcome.samples.f1.insert(outcome.samples.f1.end(), w.f1.begin(), w.f1.end());
    outcome.writer_sessions += w.consensus_s.values.size();
    if (spans != nullptr) spans->Merge(std::move(w.spans));
  }
  if (spans != nullptr) spans->Merge(std::move(reader_spans));
  for (const OpenLoopRecord& record : records) {
    chunk_of(record.done_ms).poll_ms.push_back(record.LatencyMs());
    outcome.samples.poll_ms.push_back(record.LatencyMs());
    outcome.poll_late_ms.push_back(record.LatenessMs());
  }
  outcome.samples.ingest_wall_s = (measure_end - measure_start) / 1e3;
  for (EndToEndSamples& chunk : outcome.chunks) {
    chunk.ingest_wall_s = chunk_ms / 1e3;
    chunk.setup_s = outcome.samples.setup_s;
    chunk.f1 = outcome.samples.f1;
    chunk.peak_rss_mb = outcome.samples.peak_rss_mb;
  }

  // Output check: each writer's first finalized session must equal an
  // in-process engine replay of the same arrival schedule.
  for (const WriterOutcome& w : writers) {
    if (!w.checked_stream) {
      result.Fail("a writer finalized no session");
      continue;
    }
    auto replay = ReplayInProcess(inputs, ArrivalPlan(inputs, *w.checked_stream));
    if (!replay.ok()) {
      result.Fail("in-process replay: " + replay.status().ToString());
      continue;
    }
    const cpa::Status same = ComparePredictions(replay.value(), w.checked_predictions);
    if (!same.ok()) result.Fail("server session differs from replay: " + same.ToString());
  }
  return outcome;
}

}  // namespace perfbench
