#ifndef CPA_SERVER_ROUTER_H_
#define CPA_SERVER_ROUTER_H_

/// \file router.h
/// \brief The scale-out front-end: session-affine frame forwarding.
///
/// `cpa_server --router` turns one process into a thin front door for a
/// fleet of ordinary workers (`cpa_server --tcp` processes). The router
/// speaks the same framed wire protocol as a worker — clients cannot tell
/// the difference — but instead of dispatching a frame it:
///
///   1. peeks just far enough into the frame to learn the op and the
///      session id (a shallow JSON field read or a fixed-offset binary
///      read — the body is never re-encoded),
///   2. picks a worker by consistent-hashing the session id onto a ring
///      of virtual nodes (FNV-1a 64 + avalanche finalizer; 64 points
///      per worker, so adding a worker remaps ~1/N of sessions, not all
///      of them),
///   3. forwards the original frame bytes over a pooled connection and
///      relays the worker's reply verbatim.
///
/// Session affinity is the whole trick: every op that names session `s`
/// hashes to the same worker, so the worker's in-memory engine state *is*
/// the shard. `open`/`restore` requests without an explicit session id
/// get a router-generated id (`r<n>`) injected — the only case where a
/// frame is rewritten — because a worker-generated id would not route
/// back to the worker that owns it. `list` fans out to every worker and
/// merges; `methods` goes to worker 0 (registries are identical).
///
/// Worker death: a forward that fails mid-conversation redials once
/// (counted in `backend_reconnects`) and retries; if the worker is truly
/// gone the client gets a clean per-request IOError reply in its own
/// encoding — never a hung connection. Sessions on a dead worker are
/// lost unless checkpointed (docs/ARCHITECTURE.md, "Scale-out").
///
/// Thread-safety: `HandleFrame` is called concurrently by the transport's
/// connection threads; each worker keeps a mutex-guarded pool of idle
/// connections (one checkout per in-flight forward, strict round-trip per
/// checkout, so pooled connections never carry interleaved replies).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "server/frame_handler.h"
#include "server/framing.h"
#include "server/tcp_client.h"
#include "util/status.h"

namespace cpa {

/// \brief Router configuration.
struct RouterOptions {
  /// Backend worker addresses: `host:port` (dotted quad) or `unix:PATH`.
  std::vector<std::string> workers;

  /// Frame size cap for backend connections (must be at least the front
  /// transport's cap or large replies die on the return path).
  std::size_t max_frame_bytes = server::kDefaultMaxFrameBytes;
};

/// \brief Per-worker forwarding counters (`cpa_server --router` prints
/// one line per worker at shutdown).
struct RouterWorkerStats {
  std::string address;
  std::uint64_t frames_forwarded = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t errors = 0;  ///< forwards answered by a router error reply
};

/// \brief Consistent-hashing frame forwarder over a worker fleet.
class Router : public FrameHandler {
 public:
  explicit Router(const RouterOptions& options);

  /// Closes every pooled backend connection (Shutdown).
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Validates the worker list and builds the hash ring. Connections are
  /// dialed lazily on first forward, so workers may come up after the
  /// router. Call once before serving.
  Status Start();

  /// Routes one frame to its worker and returns the worker's reply (or a
  /// router-generated error reply in the frame's encoding). Thread-safe.
  server::Frame HandleFrame(const server::Frame& frame) override;

  /// Closes all pooled connections. Idempotent. In-flight forwards finish
  /// (their connections are checked out, not pooled).
  void Shutdown();

  std::size_t num_workers() const { return workers_.size(); }

  /// Which worker index the ring assigns to `session` (tests).
  std::size_t WorkerIndexFor(std::string_view session) const;

  std::vector<RouterWorkerStats> worker_stats() const;
  std::uint64_t frames_forwarded() const;
  std::uint64_t backend_reconnects() const;

 private:
  struct Worker;

  /// Dials a fresh connection to `worker`.
  Result<server::TcpFrameClient> Dial(const Worker& worker) const;

  /// Checkout → round-trip → return-to-pool, with one redial on failure.
  Result<server::Frame> Forward(Worker& worker, const server::Frame& frame);

  /// Forward plus error-to-reply conversion: always returns a frame of
  /// the request's kind.
  server::Frame ForwardOrError(Worker& worker, const server::Frame& frame,
                               std::string_view op, std::string_view session);

  server::Frame HandleJson(const server::Frame& frame);
  server::Frame HandleBinary(const server::Frame& frame);

  /// Fans `list` out to every worker and merges the session arrays.
  server::Frame HandleList(const server::Frame& frame);

  RouterOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::map<std::uint64_t, std::size_t> ring_;
  std::atomic<std::uint64_t> next_session_{0};
  std::atomic<bool> running_{false};
};

}  // namespace cpa

#endif  // CPA_SERVER_ROUTER_H_
