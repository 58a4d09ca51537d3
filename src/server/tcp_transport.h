#ifndef CPA_SERVER_TCP_TRANSPORT_H_
#define CPA_SERVER_TCP_TRANSPORT_H_

/// \file tcp_transport.h
/// \brief The socket transport: a TCP (or UNIX-domain) listener over a
/// `FrameHandler` — a `ConsensusServer` worker or a `Router` front-end.
///
/// Thread-per-connection: one accept-loop thread plus one reader thread
/// per live connection. Each reader drains every complete frame out of
/// each `recv` (framing.h — this is where request batching happens),
/// dispatches them in arrival order through `FrameHandler::HandleFrame`,
/// and writes all the replies back in one `send`. Ordering guarantee per
/// connection: responses come back in request order, so clients may
/// pipeline arbitrarily many frames before reading. Sequenced frames
/// (framing.h flags bit 0) are accepted and their sequence id echoed on
/// the response, still in request order.
///
/// This is the only transport: it beat an epoll reactor pool on
/// throughput and cached-poll latency at 100 and 1k connections (the
/// measurements are in docs/ARCHITECTURE.md, "the server").
///
/// Graceful shutdown (`Shutdown`, also run by the destructor): stop
/// accepting, `shutdown(2)` every live socket so blocked reads return,
/// join every thread. In-flight requests finish and their responses are
/// flushed before the connection closes — a drain, not an abort.
///
/// Framing errors (oversized / unknown kind) cost one error reply and the
/// connection survives; socket errors and EOF end only that connection.
/// Sessions are independent of connections: a client may reconnect and
/// keep driving its session (pair with `idle_timeout_seconds` to reap
/// sessions whose clients never come back).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "server/frame_handler.h"
#include "server/framing.h"
#include "util/status.h"

namespace cpa {

/// \brief Listener configuration.
struct TcpTransportOptions {
  /// Dotted-quad address to bind ("0.0.0.0" to serve beyond loopback).
  std::string bind_address = "127.0.0.1";

  /// Port to bind; 0 picks a free ephemeral port (read it back via
  /// `port()` — the tests and the fig11 bench run that way).
  std::uint16_t port = 0;

  /// When non-empty, listen on a UNIX-domain stream socket at this
  /// filesystem path instead of TCP (`cpa_server --unix PATH`). The wire
  /// protocol is identical; `bind_address`/`port` are ignored. A stale
  /// socket file left by a dead process is unlinked before binding, and
  /// the path is unlinked again on Shutdown. Paths must fit in
  /// sockaddr_un (< 108 bytes).
  std::string unix_path;

  /// Hard cap on live connections; accepts beyond it are closed
  /// immediately after a best-effort JSON error frame.
  std::size_t max_connections = 1024;

  /// Frames larger than this are rejected (error reply, body skipped).
  std::size_t max_frame_bytes = server::kDefaultMaxFrameBytes;

  /// listen(2) backlog.
  int listen_backlog = 128;

  /// When > 0, sets SO_SNDBUF to this on every accepted socket. Tests
  /// use a tiny value so reply batches outgrow the socket buffer; leave 0
  /// in production.
  int so_sndbuf = 0;
};

/// \brief Monotonic transport counters (read at any time; TSan-clean).
struct TcpTransportStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  ///< over `max_connections`
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t framing_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;

  /// Syscall visibility: frames_in / recv_calls is the realized batching
  /// factor; partial_writes counts short sends, which a blocking send(2)
  /// returns only when a signal interrupts it. fig11 surfaces them.
  std::uint64_t recv_calls = 0;
  std::uint64_t send_calls = 0;
  std::uint64_t partial_writes = 0;

  /// EAGAIN count. Sends block here, so this stays 0; `cpa_server` still
  /// prints it because its shutdown stats line has a fixed shape.
  std::uint64_t wouldblock_events = 0;

  /// Router-mode counters (router.h). A plain transport leaves them 0;
  /// `cpa_server --router` merges the router's totals in before printing
  /// its shutdown stats line.
  std::uint64_t frames_forwarded = 0;
  std::uint64_t backend_reconnects = 0;
};

/// \brief Accepts TCP connections and speaks the framed wire protocol.
class TcpTransport {
 public:
  /// `handler` must outlive the transport.
  TcpTransport(FrameHandler& handler, const TcpTransportOptions& options = {});

  /// Drains and joins (Shutdown).
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds, listens and starts the accept loop. Fails (IOError) when the
  /// address/port/path cannot be bound. Call at most once.
  Status Start();

  /// The port actually bound (resolves port 0 requests). 0 before Start
  /// and in UNIX-socket mode.
  std::uint16_t port() const { return port_; }

  /// Stops accepting, drains in-flight requests, closes every connection
  /// and joins all threads. Idempotent; safe to call from any thread
  /// except a connection handler.
  void Shutdown();

  /// Live connections right now.
  std::size_t num_connections() const {
    return num_connections_.load(std::memory_order_relaxed);
  }

  TcpTransportStats stats() const;

 private:
  struct Connection;

  void AcceptLoop();
  void ServeConnection(Connection* connection);

  /// Joins and erases finished connection handlers (accept-loop chore).
  void ReapFinished();

  FrameHandler& handler_;
  TcpTransportOptions options_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;

  mutable std::mutex mutex_;  ///< guards `connections_`
  std::list<std::unique_ptr<Connection>> connections_;
  std::atomic<std::size_t> num_connections_{0};

  /// Stats counters (relaxed increments; `stats()` snapshots them).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> framing_errors_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> recv_calls_{0};
  std::atomic<std::uint64_t> send_calls_{0};
  std::atomic<std::uint64_t> partial_writes_{0};
};

}  // namespace cpa

#endif  // CPA_SERVER_TCP_TRANSPORT_H_
