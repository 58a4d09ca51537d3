#ifndef CPA_SERVER_CONSENSUS_SERVER_H_
#define CPA_SERVER_CONSENSUS_SERVER_H_

/// \file consensus_server.h
/// \brief The multi-session front-end: wire protocol ↔ `SessionManager`.
///
/// One dispatch core, three transports. `Handle` turns a parsed
/// `server::Request` into a structured `server::Response`; everything else
/// is encoding:
///
/// - `HandleLine` — line-JSON in, line-JSON out. The stdio transport
///   (`cpa_server` without `--tcp`) and the in-process tests use it.
/// - `HandleFrame` — one framed request in, one framed response out
///   (framing.h). JSON frames go through the line path; binary frames
///   through binary_codec.h. The TCP transport (tcp_transport.h) drains
///   frames off sockets and calls this per frame. Replies always match
///   the request frame's encoding, so JSON and binary clients can share
///   one connection, one session, one server.
///
/// `HandleLine`/`HandleFrame` are safe to call from any number of threads
/// concurrently — the TCP transport runs one thread per connection against
/// a single server instance — and `Serve` wraps the line path in a
/// blocking read/write loop over line-delimited streams.
///
/// Idle-session expiry: when `idle_timeout_seconds > 0`, the server owns
/// an `IdleSweeper` thread (idle_sweeper.h) that expires sessions idle
/// longer than the timeout, so an abandoned stream (or dropped connection)
/// cannot pin its engine state forever, even when no request arrives.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "server/frame_handler.h"
#include "server/framing.h"
#include "server/idle_sweeper.h"
#include "server/protocol.h"
#include "server/session_manager.h"

namespace cpa {

/// \brief Server configuration.
struct ConsensusServerOptions {
  /// Shared-pool size and session cap (session_manager.h).
  SessionManagerOptions sessions;

  /// Expire sessions idle longer than this many seconds (0 = never), on
  /// the server's sweeper thread.
  double idle_timeout_seconds = 0.0;
};

/// \brief Serves many concurrent consensus sessions over the wire protocol.
class ConsensusServer : public FrameHandler {
 public:
  explicit ConsensusServer(const ConsensusServerOptions& options = {});

  ConsensusServer(const ConsensusServer&) = delete;
  ConsensusServer& operator=(const ConsensusServer&) = delete;

  /// Dispatches one parsed request — the transport-independent core.
  /// Never fails: engine and session errors come back in
  /// `Response::status`. Thread-safe.
  server::Response Handle(const server::Request& request);

  /// Handles one request line and returns the response line (no trailing
  /// newline). Never fails: protocol and engine errors come back as
  /// `{"ok":false,...}` responses. Thread-safe.
  std::string HandleLine(std::string_view line);

  /// Handles one framed request and returns the framed response payload
  /// (the caller owns frame I/O). The reply's kind always equals the
  /// request's kind. Thread-safe.
  server::Frame HandleFrame(const server::Frame& frame) override;

  /// Reads request lines from `in` until EOF, writing one response line
  /// each to `out` (flushed per line — clients may pipeline). Blank lines
  /// are ignored.
  void Serve(std::istream& in, std::ostream& out);

  /// The session layer (tests and in-process clients drive it directly).
  SessionManager& sessions() { return sessions_; }
  const ConsensusServerOptions& options() const { return options_; }

  /// Sessions expired by idle timeout so far (the shutdown stats line).
  std::uint64_t sessions_expired() const {
    return sweeper_ != nullptr ? sweeper_->expired() : 0;
  }

 private:
  ConsensusServerOptions options_;
  SessionManager sessions_;
  // Declared after `sessions_`: the sweeper thread stops before the
  // sessions it sweeps are destroyed. Null when idle expiry is off.
  std::unique_ptr<IdleSweeper> sweeper_;
};

}  // namespace cpa

#endif  // CPA_SERVER_CONSENSUS_SERVER_H_
