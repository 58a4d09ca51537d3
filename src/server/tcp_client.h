#ifndef CPA_SERVER_TCP_CLIENT_H_
#define CPA_SERVER_TCP_CLIENT_H_

/// \file tcp_client.h
/// \brief A minimal blocking client for the framed TCP protocol.
///
/// The in-repo consumers of the socket transport — the fig11 load
/// generator, the transport tests, and `examples/tcp_client` — all speak
/// through this class. It is deliberately simple: blocking connect, an
/// explicit `Send`/`ReadFrame` split so callers can pipeline many request
/// frames before reading any response, and a `Roundtrip` helper for the
/// one-at-a-time case. Not thread-safe; one client per thread.
///
/// Two pipelining disciplines (framing.h):
///   - *Ordered*: plain `Send`; responses come back in request order.
///   - *Sequenced*: `SendSequenced` tags each request with a caller-chosen
///     sequence id; responses echo the id (`Frame::sequenced`/`sequence`
///     on `ReadFrame`), still in request order. Probe support first with
///     `NegotiateSequencing` (pre-sequencing servers reject tagged
///     frames; the probe downgrades gracefully).

#include <cstdint>
#include <string>
#include <string_view>

#include "server/framing.h"
#include "util/status.h"

namespace cpa::server {

/// \brief One TCP connection speaking length-prefixed frames.
class TcpFrameClient {
 public:
  TcpFrameClient() = default;
  ~TcpFrameClient() { Close(); }

  TcpFrameClient(TcpFrameClient&& other) noexcept;
  TcpFrameClient& operator=(TcpFrameClient&& other) noexcept;
  TcpFrameClient(const TcpFrameClient&) = delete;
  TcpFrameClient& operator=(const TcpFrameClient&) = delete;

  /// Connects to `host:port` (dotted quad).
  static Result<TcpFrameClient> Connect(
      const std::string& host, std::uint16_t port,
      std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Connects to a UNIX-domain socket (`cpa_server --unix PATH`). Same
  /// framed protocol, no TCP stack.
  static Result<TcpFrameClient> ConnectUnix(
      const std::string& path,
      std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Sends one framed request.
  Status Send(FrameKind kind, std::string_view payload);

  /// Sends one sequenced framed request tagged `sequence`. The matching
  /// response echoes the tag; in-flight ids must be unique, and the
  /// caller owns id assignment/reuse (u16 — wrap when you like, just not
  /// while the previous use is still in flight).
  Status SendSequenced(FrameKind kind, std::string_view payload,
                       std::uint16_t sequence);

  /// Probes whether the server echoes sequence tags: one sequenced
  /// `{"op":"methods"}` roundtrip. True when the reply carries the tag
  /// back; false when the server predates sequencing (it answers with an
  /// untagged error frame — the connection stays usable in ordered
  /// mode). IOError only on transport failure. Call before sending
  /// sequenced frames; must not be called with responses outstanding.
  Result<bool> NegotiateSequencing();

  /// Sends raw pre-encoded bytes (tests: batched frames, broken frames).
  Status SendRaw(std::string_view bytes);

  /// Blocks until one complete response frame arrives. EOF from the
  /// server fails with IOError; a recoverable framing error on the
  /// response stream fails with that error.
  Result<Frame> ReadFrame();

  /// `Send` + `ReadFrame`.
  Result<Frame> Roundtrip(FrameKind kind, std::string_view payload);

  /// Half-closes the write side (the server sees EOF and, once its
  /// replies are flushed, closes too) without dropping unread responses.
  void FinishWrites();

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  FrameDecoder decoder_{kDefaultMaxFrameBytes};
};

}  // namespace cpa::server

#endif  // CPA_SERVER_TCP_CLIENT_H_
