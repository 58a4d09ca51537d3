/// \file cpa_server_main.cc
/// \brief The `cpa_server` binary: the multi-session consensus server.
///
///   $ cpa_server [--num-threads N] [--max-sessions S] [--idle-timeout SEC]
///                [--tcp] [--port N] [--bind ADDR] [--unix PATH]
///                [--max-connections C] [--max-frame-bytes B]
///                [--router --workers ADDR,ADDR,...]
///   $ cpa_server --methods   # list registered methods + simd level, exit
///
/// An unknown flag, or a value that does not parse or lies outside its
/// range, is refused: the server exits non-zero and names it, before it
/// builds anything.
///
/// Without `--tcp`/`--unix` the server speaks line-delimited JSON over
/// stdin/stdout — one JSON request per input line, one JSON response per
/// output line (src/server/protocol.h; full format with transcripts in
/// docs/API.md). Example exchange:
///
///   > {"op":"open","config":{"method":"MV","num_items":2,"num_workers":2,
///      "num_labels":3}}
///   < {"method":"MV","ok":true,"op":"open","session":"s1"}
///   > {"op":"observe","session":"s1","answers":[
///      {"item":0,"worker":0,"labels":[1]}]}
///   < {"answers_seen":1,"batches_seen":1,"ok":true,"op":"observe",...}
///
/// With `--tcp` it binds `--bind`:`--port` (default 127.0.0.1, ephemeral)
/// and serves the same protocol in length-prefixed frames
/// (src/server/framing.h): JSON frames for everything, binary frames
/// (src/server/binary_codec.h) for the hot observe/snapshot/finalize/
/// checkpoint/restore path. With `--unix PATH` it listens on a
/// UNIX-domain socket instead (same framed protocol, no TCP stack).
/// Either way one thread serves each connection
/// (src/server/tcp_transport.h). The bound endpoint is announced on
/// stderr as `cpa_server: listening on <addr>`; the process serves until
/// SIGINT/SIGTERM, then drains connections and exits 0. When
/// `--idle-timeout` is set (stdio or socket mode), the server's background
/// sweeper thread expires idle sessions on a timer — abandoned sessions are
/// reaped even when no requests arrive (src/server/idle_sweeper.h).
///
/// With `--router` the process serves no sessions itself: it
/// consistent-hashes each session id onto the `--workers` fleet (plain
/// `cpa_server --tcp` processes, addresses `host:port` or `unix:PATH`)
/// and forwards frames verbatim (src/server/router.h). Clients speak to
/// the router exactly as they would to a single worker.
///
/// Diagnostics go to stderr; stdout carries only stdio-mode responses.

#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep/simd.h"
#include "engine/engine_registry.h"
#include "server/consensus_server.h"
#include "server/router.h"
#include "server/tcp_transport.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace {

/// Upper bounds of the range-checked flags: `--num-threads` starts that
/// many threads at once, and a frame is buffered whole before it is parsed.
constexpr long long kMaxThreads = 1024;
constexpr long long kMaxSize = 1 << 30;

/// Blocks until SIGINT or SIGTERM arrives. The signals are masked before
/// the transport spawns its threads, so delivery is funneled to this
/// sigwait and never interrupts a handler mid-request.
void WaitForShutdownSignal() {
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  int received = 0;
  sigwait(&signals, &received);
  std::fprintf(stderr, "cpa_server: caught signal %d, draining\n", received);
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = cpa::Flags::Parse(argc, argv);
  CPA_CHECK(flags.ok()) << flags.status().ToString();

  // Every flag is read before any is acted on, so an unknown one is
  // refused whichever mode the others select.
  const bool list_methods = flags.value().GetBool("methods", false);

  // Range-checked, so a negative count cannot wrap through the casts below.
  cpa::ConsensusServerOptions options;
  options.sessions.num_threads = static_cast<std::size_t>(
      flags.value().GetIntInRange("num-threads", 1, 1, kMaxThreads));
  options.sessions.max_sessions = static_cast<std::size_t>(
      flags.value().GetIntInRange("max-sessions", 64, 1, kMaxSize));
  options.idle_timeout_seconds = flags.value().GetDouble("idle-timeout", 0.0);

  const bool router_mode = flags.value().GetBool("router", false);
  const std::string unix_path = flags.value().GetString("unix", "");
  const bool socket_mode =
      flags.value().GetBool("tcp", false) || router_mode || !unix_path.empty();

  cpa::TcpTransportOptions tcp_options;
  tcp_options.bind_address = flags.value().GetString("bind", "127.0.0.1");
  tcp_options.port =
      static_cast<std::uint16_t>(flags.value().GetIntInRange("port", 0, 0, 65535));
  tcp_options.unix_path = unix_path;
  tcp_options.max_connections = static_cast<std::size_t>(
      flags.value().GetIntInRange("max-connections", 1024, 1, kMaxSize));
  tcp_options.max_frame_bytes = static_cast<std::size_t>(flags.value().GetIntInRange(
      "max-frame-bytes", cpa::server::kDefaultMaxFrameBytes, 1, kMaxSize));
  const std::string workers = flags.value().GetString("workers", "");
  CPA_CHECK_OK(flags.value().CheckAllRead());

  if (list_methods) {
    // Capability probe for deploy scripts: the registered methods plus the
    // kernel level this binary will run (docs/ARCHITECTURE.md §3c).
    for (const std::string& name :
         cpa::EngineRegistry::Global().MethodNames()) {
      std::printf("%s\n", name.c_str());
    }
    std::printf("%s\n", cpa::simd::SimdReportLine().c_str());
    return 0;
  }

  if (!socket_mode) {
    cpa::ConsensusServer server(options);
    std::fprintf(stderr,
                 "cpa_server: serving on stdin/stdout (num_threads=%zu, "
                 "max_sessions=%zu, idle_timeout=%.1fs, %s)\n",
                 options.sessions.num_threads, options.sessions.max_sessions,
                 options.idle_timeout_seconds,
                 cpa::simd::SimdReportLine().c_str());
    server.Serve(std::cin, std::cout);
    return 0;
  }

  // Mask the shutdown signals before any thread exists so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  CPA_CHECK_EQ(pthread_sigmask(SIG_BLOCK, &signals, nullptr), 0);

  // The frame handler behind the listener: a session-owning server, or a
  // router forwarding to the worker fleet.
  std::unique_ptr<cpa::ConsensusServer> server;
  std::unique_ptr<cpa::Router> router;
  cpa::FrameHandler* handler = nullptr;
  if (router_mode) {
    cpa::RouterOptions router_options;
    for (const std::string& address : cpa::Split(workers, ',')) {
      if (!address.empty()) router_options.workers.push_back(address);
    }
    CPA_CHECK(!router_options.workers.empty())
        << "--router requires --workers host:port[,host:port...]";
    router_options.max_frame_bytes = tcp_options.max_frame_bytes;
    router = std::make_unique<cpa::Router>(router_options);
    const cpa::Status started = router->Start();
    CPA_CHECK(started.ok()) << started.ToString();
    handler = router.get();
  } else {
    server = std::make_unique<cpa::ConsensusServer>(options);
    handler = server.get();
  }

  cpa::TcpTransport listener(*handler, tcp_options);
  const cpa::Status started = listener.Start();
  CPA_CHECK(started.ok()) << started.ToString();
  const std::string endpoint =
      unix_path.empty()
          ? cpa::StrFormat("%s:%u", tcp_options.bind_address.c_str(),
                           static_cast<unsigned>(listener.port()))
          : unix_path;
  if (router_mode) {
    std::fprintf(stderr,
                 "cpa_server: routing on %s (workers=%zu, "
                 "max_connections=%zu, %s)\n",
                 endpoint.c_str(), router->num_workers(), tcp_options.max_connections,
                 cpa::simd::SimdReportLine().c_str());
  } else {
    std::fprintf(stderr,
                 "cpa_server: listening on %s ("
                 "num_threads=%zu, max_sessions=%zu, max_connections=%zu, "
                 "idle_timeout=%.1fs, %s)\n",
                 endpoint.c_str(), options.sessions.num_threads,
                 options.sessions.max_sessions, tcp_options.max_connections,
                 options.idle_timeout_seconds, cpa::simd::SimdReportLine().c_str());
  }

  WaitForShutdownSignal();
  listener.Shutdown();
  cpa::TcpTransportStats stats = listener.stats();
  if (router != nullptr) {
    stats.frames_forwarded = router->frames_forwarded();
    stats.backend_reconnects = router->backend_reconnects();
    router->Shutdown();
  }
  std::fprintf(stderr,
               "cpa_server: served %llu frames in / %llu out over %llu "
               "connections (%llu framing errors, %llu forwarded, "
               "%llu backend reconnects, %llu sessions expired)\n",
               static_cast<unsigned long long>(stats.frames_in),
               static_cast<unsigned long long>(stats.frames_out),
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.framing_errors),
               static_cast<unsigned long long>(stats.frames_forwarded),
               static_cast<unsigned long long>(stats.backend_reconnects),
               static_cast<unsigned long long>(
                   server != nullptr ? server->sessions_expired() : 0));
  std::fprintf(stderr,
               "cpa_server: syscalls: %llu recvs (%.1f frames/recv), "
               "%llu sends, %llu partial writes, %llu wouldblock\n",
               static_cast<unsigned long long>(stats.recv_calls),
               stats.recv_calls > 0 ? static_cast<double>(stats.frames_in) /
                                          static_cast<double>(stats.recv_calls)
                                    : 0.0,
               static_cast<unsigned long long>(stats.send_calls),
               static_cast<unsigned long long>(stats.partial_writes),
               static_cast<unsigned long long>(stats.wouldblock_events));
  if (router != nullptr) {
    for (const cpa::RouterWorkerStats& row : router->worker_stats()) {
      std::fprintf(stderr,
                   "cpa_server: worker %s: %llu forwarded, %llu reconnects, "
                   "%llu errors\n",
                   row.address.c_str(),
                   static_cast<unsigned long long>(row.frames_forwarded),
                   static_cast<unsigned long long>(row.reconnects),
                   static_cast<unsigned long long>(row.errors));
    }
  }
  return 0;
}
