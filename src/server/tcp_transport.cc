#include "server/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "server/binary_codec.h"
#include "server/protocol.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace cpa {
namespace {

/// Writes all of `bytes` to `fd`, riding out EINTR and partial writes.
/// MSG_NOSIGNAL: a peer that hung up costs an EPIPE, not a SIGPIPE.
/// Counts one send_call per send(2) and one partial_write per short send.
bool SendAll(int fd, std::string_view bytes,
             std::atomic<std::uint64_t>& send_calls,
             std::atomic<std::uint64_t>& partial_writes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    send_calls.fetch_add(1, std::memory_order_relaxed);
    if (static_cast<std::size_t>(n) < bytes.size() - sent) {
      partial_writes.fetch_add(1, std::memory_order_relaxed);
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// A bound, listening socket (TCP or UNIX per `options.unix_path`).
struct ListenSocket {
  int fd = -1;
  std::uint16_t port = 0;  ///< resolved port (0 for UNIX sockets)
};

/// Creates, binds and listens per `options`. On failure the fd is closed
/// (and a UNIX path unlinked) before the error returns.
Status BindAndListen(const TcpTransportOptions& options, ListenSocket* out) {
  if (!options.unix_path.empty()) {
    sockaddr_un address{};
    if (options.unix_path.size() >= sizeof(address.sun_path)) {
      return Status::InvalidArgument(
          StrFormat("unix socket path too long (%zu bytes, max %zu)",
                    options.unix_path.size(), sizeof(address.sun_path) - 1));
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
    }
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, options.unix_path.c_str(),
                options.unix_path.size() + 1);
    // A socket file left behind by a dead server would make bind fail
    // with EADDRINUSE forever; unlink it first. A *live* server's file
    // is replaced too — matching SO_REUSEADDR semantics on the TCP path.
    ::unlink(options.unix_path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) < 0) {
      const Status status =
          Status::IOError(StrFormat("bind %s: %s", options.unix_path.c_str(),
                                    std::strerror(errno)));
      ::close(fd);
      return status;
    }
    if (::listen(fd, options.listen_backlog) < 0) {
      const Status status =
          Status::IOError(StrFormat("listen: %s", std::strerror(errno)));
      ::close(fd);
      ::unlink(options.unix_path.c_str());
      return status;
    }
    out->fd = fd;
    out->port = 0;
    return Status::OK();
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &address.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("invalid bind address '%s'", options.bind_address.c_str()));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) <
      0) {
    const Status status = Status::IOError(
        StrFormat("bind %s:%u: %s", options.bind_address.c_str(),
                  static_cast<unsigned>(options.port), std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, options.listen_backlog) < 0) {
    const Status status =
        Status::IOError(StrFormat("listen: %s", std::strerror(errno)));
    ::close(fd);
    return status;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    const Status status =
        Status::IOError(StrFormat("getsockname: %s", std::strerror(errno)));
    ::close(fd);
    return status;
  }
  out->fd = fd;
  out->port = ntohs(bound.sin_port);
  return Status::OK();
}

/// Applies per-connection socket options (TCP_NODELAY on TCP sockets,
/// SO_SNDBUF when `options.so_sndbuf` > 0).
void ConfigureAcceptedSocket(int fd, const TcpTransportOptions& options) {
  if (options.unix_path.empty()) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  if (options.so_sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.so_sndbuf,
                 sizeof(options.so_sndbuf));
  }
}

}  // namespace

/// One live connection: its socket plus the thread serving it.
///
/// fd lifetime: written once before the handler thread starts and closed
/// only *after* that thread is joined (by ReapFinished or Shutdown), so
/// `Shutdown` can always safely `shutdown(2)` the fd to unblock the
/// reader — the descriptor can never be recycled under it. The handler
/// itself never closes; it just sets `done`.
struct TcpTransport::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};
};

TcpTransport::TcpTransport(FrameHandler& handler,
                           const TcpTransportOptions& options)
    : handler_(handler), options_(options) {}

TcpTransport::~TcpTransport() { Shutdown(); }

Status TcpTransport::Start() {
  CPA_CHECK(listen_fd_ < 0) << "TcpTransport::Start called twice";

  ListenSocket listener;
  const Status status = BindAndListen(options_, &listener);
  if (!status.ok()) return status;
  listen_fd_ = listener.fd;
  port_ = listener.port;
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpTransport::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener was shut down (or broke); stop accepting
    }
    ReapFinished();
    if (num_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      std::string reply;
      server::AppendFrame(
          reply, server::FrameKind::kJson,
          server::ErrorResponse(
              "", "",
              Status::FailedPrecondition(StrFormat(
                  "connection limit (%zu) reached", options_.max_connections))));
      SendAll(fd, reply, send_calls_, partial_writes_);
      ::close(fd);
      continue;
    }
    ConfigureAcceptedSocket(fd, options_);

    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    num_connections_.fetch_add(1, std::memory_order_relaxed);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void TcpTransport::ServeConnection(Connection* connection) {
  server::FrameDecoder decoder(options_.max_frame_bytes);
  char buffer[64 * 1024];
  std::string replies;
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(connection->fd, buffer, sizeof(buffer), 0);
    if (n == 0) break;  // client closed its end
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // reset / local shutdown
    }
    recv_calls_.fetch_add(1, std::memory_order_relaxed);
    bytes_in_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    decoder.Append(std::string_view(buffer, static_cast<std::size_t>(n)));

    // The batching core: every complete frame delivered by this read is
    // dispatched now, and all replies leave in one send.
    replies.clear();
    while (auto item = decoder.Next()) {
      server::Frame reply;
      if (item->error.ok()) {
        frames_in_.fetch_add(1, std::memory_order_relaxed);
        reply = handler_.HandleFrame(item->frame);
      } else {
        framing_errors_.fetch_add(1, std::memory_order_relaxed);
        reply.kind = item->kind;
        reply.payload =
            item->kind == server::FrameKind::kBinary
                ? server::EncodeBinaryError("", "", item->error)
                : server::ErrorResponse("", "", item->error);
      }
      // The response echoes the request's sequence tag; in-order
      // completion is one valid completion order for sequenced frames.
      reply.sequenced = item->sequenced;
      reply.sequence = item->sequence;
      frames_out_.fetch_add(1, std::memory_order_relaxed);
      server::AppendFrame(replies, reply);
    }
    if (!replies.empty()) {
      if (SendAll(connection->fd, replies, send_calls_, partial_writes_)) {
        bytes_out_.fetch_add(replies.size(), std::memory_order_relaxed);
      } else {
        open = false;
      }
    }
  }
  num_connections_.fetch_sub(1, std::memory_order_relaxed);
  connection->done.store(true, std::memory_order_release);
}

void TcpTransport::ReapFinished() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpTransport::Shutdown() {
  const bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (was_running) {
    // shutdown(2) (not close) wakes a blocked accept(); the fd itself is
    // closed only after the loop has exited, so it cannot be recycled
    // under a late accept call.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  }

  // Unblock every reader. Handlers finish dispatching what they already
  // read, flush their replies, and mark themselves done — a drain, not
  // an abort. fds stay open until after the join below.
  std::list<std::unique_ptr<Connection>> drained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& connection : connections_) {
      ::shutdown(connection->fd, SHUT_RDWR);
    }
    drained.swap(connections_);
  }
  for (const auto& connection : drained) {
    if (connection->thread.joinable()) connection->thread.join();
    ::close(connection->fd);
  }
}

TcpTransportStats TcpTransport::stats() const {
  TcpTransportStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  stats.frames_in = frames_in_.load(std::memory_order_relaxed);
  stats.frames_out = frames_out_.load(std::memory_order_relaxed);
  stats.framing_errors = framing_errors_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  stats.recv_calls = recv_calls_.load(std::memory_order_relaxed);
  stats.send_calls = send_calls_.load(std::memory_order_relaxed);
  stats.partial_writes = partial_writes_.load(std::memory_order_relaxed);
  // A blocking send never sees EAGAIN; wouldblock_events stays 0 here.
  return stats;
}

}  // namespace cpa
