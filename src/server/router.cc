#include "server/router.h"

#include <cstdlib>
#include <utility>

#include "server/binary_codec.h"
#include "server/protocol.h"
#include "util/endian.h"
#include "util/json.h"
#include "util/string_utils.h"

namespace cpa {
namespace {

using server::Frame;
using server::FrameKind;

/// Ring points per worker. More points smooth the session distribution;
/// 64 keeps the imbalance under a few percent for small fleets.
/// tools/tcp_smoke.py's ring mirrors this count.
constexpr std::size_t kVirtualNodes = 64;

/// The ring hash: FNV-1a 64 with a Murmur3 avalanche finalizer. Not
/// cryptographic; it only needs to spread session ids evenly and be
/// identical on every router instance. The finalizer matters: plain
/// FNV-1a places near-identical strings (sequential ids like "r0", "r1",
/// … — exactly what the router generates) in correlated ring positions,
/// which starved whole workers in practice. tools/tcp_smoke.py carries an
/// independent reimplementation; keep the two bit-identical.
std::uint64_t RingHash(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a 64 offset basis
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  hash ^= hash >> 33;
  hash *= 0xFF51AFD7ED558CCDull;
  hash ^= hash >> 33;
  hash *= 0xC4CEB9FE1A85EC53ull;
  hash ^= hash >> 33;
  return hash;
}

/// Wire name for a binary request type byte (error replies only).
std::string_view BinaryOpName(std::uint8_t type) {
  switch (type) {
    case server::kBinaryMsgObserveRequest: return "observe";
    case server::kBinaryMsgSnapshotRequest: return "snapshot";
    case server::kBinaryMsgFinalizeRequest: return "finalize";
    case server::kBinaryMsgCheckpointRequest: return "checkpoint";
    case server::kBinaryMsgRestoreRequest: return "restore";
    default: return "";
  }
}

Frame JsonError(std::string_view op, std::string_view session,
                const Status& status) {
  return Frame{FrameKind::kJson, server::ErrorResponse(op, session, status)};
}

Frame BinaryError(std::string_view op, std::string_view session,
                  const Status& status) {
  return Frame{FrameKind::kBinary,
               server::EncodeBinaryError(op, session, status)};
}

}  // namespace

/// One backend worker: its parsed address plus a pool of idle
/// connections. A connection is checked out for exactly one round-trip,
/// so pooled connections never carry interleaved replies.
struct Router::Worker {
  std::string address;  ///< as configured (messages, stats)
  bool is_unix = false;
  std::string host;  ///< dotted quad, or the unix socket path
  std::uint16_t port = 0;

  std::mutex mutex;  ///< guards `idle`
  std::vector<server::TcpFrameClient> idle;

  std::atomic<std::uint64_t> forwarded{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<std::uint64_t> errors{0};
};

Router::Router(const RouterOptions& options) : options_(options) {}

Router::~Router() { Shutdown(); }

Status Router::Start() {
  if (options_.workers.empty()) {
    return Status::InvalidArgument("router needs at least one worker address");
  }
  for (const std::string& address : options_.workers) {
    auto worker = std::make_unique<Worker>();
    worker->address = address;
    if (address.rfind("unix:", 0) == 0) {
      worker->is_unix = true;
      worker->host = address.substr(5);
      if (worker->host.empty()) {
        return Status::InvalidArgument(
            StrFormat("worker address '%s' has an empty socket path",
                      address.c_str()));
      }
    } else {
      const std::size_t colon = address.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == address.size()) {
        return Status::InvalidArgument(StrFormat(
            "worker address '%s' must be host:port or unix:PATH",
            address.c_str()));
      }
      worker->host = address.substr(0, colon);
      char* end = nullptr;
      const unsigned long port =
          std::strtoul(address.c_str() + colon + 1, &end, 10);
      if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
        return Status::InvalidArgument(StrFormat(
            "worker address '%s' has an invalid port", address.c_str()));
      }
      worker->port = static_cast<std::uint16_t>(port);
    }
    workers_.push_back(std::move(worker));
  }
  // One ring entry per (worker, virtual node). Hash collisions just drop
  // a point — harmless at 64 points per worker.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    for (std::size_t v = 0; v < kVirtualNodes; ++v) {
      ring_.emplace(
          RingHash(StrFormat("%s#%zu", workers_[i]->address.c_str(), v)), i);
    }
  }
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

std::size_t Router::WorkerIndexFor(std::string_view session) const {
  auto it = ring_.lower_bound(RingHash(session));
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

Result<server::TcpFrameClient> Router::Dial(const Worker& worker) const {
  if (worker.is_unix) {
    return server::TcpFrameClient::ConnectUnix(worker.host,
                                               options_.max_frame_bytes);
  }
  return server::TcpFrameClient::Connect(worker.host, worker.port,
                                         options_.max_frame_bytes);
}

Result<Frame> Router::Forward(Worker& worker, const Frame& frame) {
  server::TcpFrameClient client;
  bool pooled = false;
  {
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (!worker.idle.empty()) {
      client = std::move(worker.idle.back());
      worker.idle.pop_back();
      pooled = true;
    }
  }
  if (!pooled) {
    CPA_ASSIGN_OR_RETURN(client, Dial(worker));
  }
  Result<Frame> reply = client.Roundtrip(frame.kind, frame.payload);
  if (!reply.ok()) {
    // A pooled connection may be stale (the worker died and came back
    // since the last forward) and a fresh one may have raced a restart:
    // either way, redial once and retry. A second failure means the
    // worker is really gone — fail this request cleanly.
    client.Close();
    worker.reconnects.fetch_add(1, std::memory_order_relaxed);
    Result<server::TcpFrameClient> redialed = Dial(worker);
    if (!redialed.ok()) return reply.status();
    client = std::move(redialed).value();
    reply = client.Roundtrip(frame.kind, frame.payload);
    if (!reply.ok()) return reply.status();
  }
  {
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (running_.load(std::memory_order_acquire)) {
      worker.idle.push_back(std::move(client));
    }
  }
  worker.forwarded.fetch_add(1, std::memory_order_relaxed);
  return reply;
}

Frame Router::ForwardOrError(Worker& worker, const Frame& frame,
                             std::string_view op, std::string_view session) {
  Result<Frame> reply = Forward(worker, frame);
  if (reply.ok()) return std::move(reply).value();
  worker.errors.fetch_add(1, std::memory_order_relaxed);
  const Status status = Status::IOError(
      StrFormat("worker %s unavailable: %s", worker.address.c_str(),
                std::string(reply.status().message()).c_str()));
  return frame.kind == FrameKind::kBinary ? BinaryError(op, session, status)
                                          : JsonError(op, session, status);
}

Frame Router::HandleFrame(const Frame& frame) {
  if (!running_.load(std::memory_order_acquire)) {
    const Status status = Status::FailedPrecondition("router is shut down");
    return frame.kind == FrameKind::kBinary ? BinaryError("", "", status)
                                            : JsonError("", "", status);
  }
  return frame.kind == FrameKind::kJson ? HandleJson(frame)
                                        : HandleBinary(frame);
}

Frame Router::HandleJson(const Frame& frame) {
  Result<JsonValue> parsed = JsonValue::Parse(frame.payload);
  if (!parsed.ok()) return JsonError("", "", parsed.status());
  const JsonValue& json = parsed.value();
  const JsonValue* op_field = json.Find("op");
  if (json.kind() != JsonValue::Kind::kObject || op_field == nullptr ||
      op_field->kind() != JsonValue::Kind::kString) {
    return JsonError(
        "", "", Status::InvalidArgument("request needs a string field 'op'"));
  }
  const std::string& op = op_field->string_value();
  std::string session;
  if (const JsonValue* field = json.Find("session");
      field != nullptr && field->kind() == JsonValue::Kind::kString) {
    session = field->string_value();
  }

  if (op == "list") return HandleList(frame);
  // Registries are identical across the fleet; any worker can answer.
  if (op == "methods") return ForwardOrError(*workers_[0], frame, op, "");

  if ((op == "open" || op == "restore") && session.empty()) {
    // A worker-generated id would not hash back to the worker that owns
    // it, so the router must pick the id up front. This is the only case
    // where a frame is rewritten instead of forwarded verbatim.
    session = StrFormat("r%llu",
                        static_cast<unsigned long long>(next_session_.fetch_add(
                            1, std::memory_order_relaxed)));
    JsonValue::Object fields = json.object();
    fields["session"] = JsonValue(session);
    const Frame rewritten{FrameKind::kJson,
                          JsonValue(std::move(fields)).DumpCompact()};
    return ForwardOrError(*workers_[WorkerIndexFor(session)], rewritten, op,
                          session);
  }

  // Everything else routes by session — including malformed requests
  // (empty session, unknown op), which the owning worker rejects with the
  // same error a single-process server would produce.
  return ForwardOrError(*workers_[WorkerIndexFor(session)], frame, op,
                        session);
}

Frame Router::HandleBinary(const Frame& frame) {
  const std::string_view body = frame.payload;
  // Every binary request starts `u8 type, u16 session length, session`
  // (binary_codec.h) — enough to route without decoding the body.
  if (body.size() < 3) {
    return BinaryError("", "",
                       Status::InvalidArgument("binary message truncated"));
  }
  const auto type = static_cast<std::uint8_t>(body[0]);
  const std::string_view op = BinaryOpName(type);
  const std::uint16_t session_length =
      ReadLittleEndian<std::uint16_t>(body, 1);
  if (body.size() < std::size_t{3} + session_length) {
    return BinaryError(op, "",
                       Status::InvalidArgument("binary message truncated"));
  }
  std::string session(body.substr(3, session_length));

  if (type == server::kBinaryMsgRestoreRequest && session.empty()) {
    // Same id-injection rule as JSON open/restore: the router owns id
    // assignment so the session routes back to its worker afterwards.
    const std::size_t state_offset = std::size_t{3} + session_length;
    if (body.size() < state_offset + 4) {
      return BinaryError(op, "",
                         Status::InvalidArgument("binary message truncated"));
    }
    const std::uint32_t state_length =
        ReadLittleEndian<std::uint32_t>(body, state_offset);
    if (body.size() < state_offset + 4 + state_length) {
      return BinaryError(op, "",
                         Status::InvalidArgument("binary message truncated"));
    }
    session = StrFormat("r%llu",
                        static_cast<unsigned long long>(next_session_.fetch_add(
                            1, std::memory_order_relaxed)));
    const Frame rewritten{
        FrameKind::kBinary,
        server::EncodeRestoreRequest(
            session, body.substr(state_offset + 4, state_length))};
    return ForwardOrError(*workers_[WorkerIndexFor(session)], rewritten, op,
                          session);
  }

  return ForwardOrError(*workers_[WorkerIndexFor(session)], frame, op,
                        session);
}

Frame Router::HandleList(const Frame& frame) {
  // Fan out and merge. Dead workers are skipped — `list` reports the
  // sessions that are actually reachable right now.
  JsonValue::Array rows;
  for (const auto& worker : workers_) {
    Result<Frame> reply = Forward(*worker, frame);
    if (!reply.ok()) {
      worker->errors.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Result<JsonValue> parsed = JsonValue::Parse(reply.value().payload);
    if (!parsed.ok()) continue;
    const JsonValue* ok = parsed.value().Find("ok");
    if (ok == nullptr || ok->kind() != JsonValue::Kind::kBool ||
        !ok->bool_value()) {
      continue;
    }
    const JsonValue* sessions = parsed.value().Find("sessions");
    if (sessions == nullptr || sessions->kind() != JsonValue::Kind::kArray) {
      continue;
    }
    for (const JsonValue& row : sessions->array()) rows.push_back(row);
  }
  JsonValue::Object fields;
  fields["sessions"] = JsonValue(std::move(rows));
  return Frame{FrameKind::kJson,
               server::OkResponse("list", std::move(fields))};
}

void Router::Shutdown() {
  running_.store(false, std::memory_order_release);
  for (const auto& worker : workers_) {
    std::vector<server::TcpFrameClient> drained;
    {
      std::lock_guard<std::mutex> lock(worker->mutex);
      drained.swap(worker->idle);
    }
    // Destruction closes the sockets; the workers see clean EOFs.
  }
}

std::vector<RouterWorkerStats> Router::worker_stats() const {
  std::vector<RouterWorkerStats> stats;
  stats.reserve(workers_.size());
  for (const auto& worker : workers_) {
    RouterWorkerStats row;
    row.address = worker->address;
    row.frames_forwarded = worker->forwarded.load(std::memory_order_relaxed);
    row.reconnects = worker->reconnects.load(std::memory_order_relaxed);
    row.errors = worker->errors.load(std::memory_order_relaxed);
    stats.push_back(std::move(row));
  }
  return stats;
}

std::uint64_t Router::frames_forwarded() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->forwarded.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Router::backend_reconnects() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->reconnects.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace cpa
