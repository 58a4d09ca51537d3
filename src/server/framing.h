#ifndef CPA_SERVER_FRAMING_H_
#define CPA_SERVER_FRAMING_H_

/// \file framing.h
/// \brief The length-prefixed frame layer of the socket transport.
///
/// A TCP stream carries frames back to back; each frame is one request or
/// one response in either encoding:
///
///   offset 0  u32 (LE)  body length in bytes (header excluded)
///   offset 4  u8        kind: 1 = JSON text, 2 = binary (binary_codec.h)
///   offset 5  u8        flags: 0 = legacy ordered frame,
///                       bit 0 = frame carries a sequence id
///   offset 6  u16 (LE)  sequence id (must be 0 when flags == 0)
///   offset 8  body
///
/// Length-prefixed framing is what makes batching cheap: a client writes
/// any number of frames in one send, the server drains every complete
/// frame out of one recv — no newline scanning, no per-request syscall.
///
/// **Sequence ids** (flags bit 0) are the pipelining contract: a response
/// frame always echoes the request frame's flags and sequence id, so a
/// client that tags its requests can match responses by id instead of by
/// arrival order. The transport (tcp_transport.h) answers every frame,
/// tagged or not, in request order; matching by id keeps a client correct
/// whatever the order. A frame with flags == 0 is a *legacy ordered*
/// frame: its response also carries zeros, so pre-sequencing clients
/// interoperate byte-identically. Old servers reject a sequenced
/// frame with a recoverable error reply (nonzero "reserved" bytes), which
/// is exactly the probe `TcpFrameClient::NegotiateSequencing` uses to
/// version-negotiate the feature; see docs/API.md.
///
/// `FrameDecoder` is the incremental reader both ends use: feed it raw
/// bytes as they arrive, pull complete frames out. Oversized,
/// unknown-kind and unknown-flag frames are *recoverable*: the decoder
/// reports the error, skips exactly that frame's declared body, and keeps
/// the connection parseable — a misbehaving request costs one error
/// reply, not the connection (tested in tests/server/framing_test.cc).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace cpa::server {

/// \brief Encoding of one frame's body.
enum class FrameKind : std::uint8_t {
  kJson = 1,    ///< UTF-8 JSON text (protocol.h — same grammar as stdio)
  kBinary = 2,  ///< compact binary message (binary_codec.h)
};

/// Flags-byte bit: the u16 at offset 6 is a sequence id to echo.
inline constexpr std::uint8_t kFrameFlagSequenced = 0x01;

/// \brief One decoded (or to-be-encoded) frame.
struct Frame {
  FrameKind kind = FrameKind::kJson;
  std::string payload;

  /// Sequence tag (flags bit 0). Responses echo the request's tag
  /// verbatim; `sequence` is meaningful only when `sequenced` is true.
  bool sequenced = false;
  std::uint16_t sequence = 0;
};

/// Frames larger than this are rejected by default (the decoder skips the
/// body and reports an error instead of buffering it).
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;  // 16 MiB

/// Size of the fixed frame header.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Appends an encoded legacy (unsequenced) frame to `out`.
void AppendFrame(std::string& out, FrameKind kind, std::string_view payload);

/// Appends an encoded frame honoring the frame's sequence tag.
void AppendFrame(std::string& out, const Frame& frame);

/// Appends an encoded sequenced frame (flags bit 0 set) to `out`.
void AppendSequencedFrame(std::string& out, FrameKind kind,
                          std::string_view payload, std::uint16_t sequence);

/// Encodes one frame as header + body (sequence tag included).
std::string EncodeFrame(const Frame& frame);

/// \brief Incremental frame reader over an arbitrary byte stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// One drained frame — either a complete payload or a recoverable
  /// framing error (oversized / unknown kind / unknown flags) whose body
  /// the decoder skipped.
  struct Item {
    Frame frame;     ///< valid iff `error.ok()`
    Status error;    ///< why the frame was dropped otherwise
    FrameKind kind;  ///< declared kind (best effort — error replies match it)

    /// Declared sequence tag (best effort — error replies echo it so a
    /// pipelining client can match the failure to its request).
    bool sequenced = false;
    std::uint16_t sequence = 0;
  };

  /// Feeds raw bytes from the stream.
  void Append(std::string_view bytes);

  /// Returns the next complete frame (or framing error), or nullopt when
  /// more bytes are needed. Call in a loop after every `Append`.
  std::optional<Item> Next();

  /// Bytes buffered but not yet consumed by `Next`.
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  std::size_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
  std::size_t consumed_ = 0;  ///< prefix of `buffer_` already drained
  std::size_t skip_remaining_ = 0;  ///< body bytes of a rejected frame
};

}  // namespace cpa::server

#endif  // CPA_SERVER_FRAMING_H_
