#ifndef CPA_BENCH_LOAD_DRIVER_H_
#define CPA_BENCH_LOAD_DRIVER_H_

/// \file load_driver.h
/// \brief The one wire load driver shared by the socket benches (fig11,
/// fig12) and the fleet tests: a forked worker fleet, the request
/// helpers, a concurrent TCP replay and its report rows.
///
/// **Fork rule.** `ForkFleetWorker` calls fork(2), which copies only the
/// calling thread: a lock another thread holds at that moment stays held
/// forever in the child, and TSan rejects a multi-threaded fork outright.
/// So a process forks only while it runs no other thread: its workers are
/// forked before any thread pool, `ConsensusServer`, transport or
/// `ReplaySessions` call of the run starts one (threads of earlier runs
/// must be joined), and a gtest binary declares its forking test first.
/// An in-process `Router` starts no thread (it dials lazily), so a caller
/// driving `Router::HandleFrame` on its own thread may keep forking
/// respawns.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/dataset.h"
#include "data/label_set.h"
#include "engine/engine_config.h"
#include "server/binary_codec.h"
#include "server/consensus_server.h"
#include "server/frame_handler.h"
#include "server/framing.h"
#include "server/tcp_transport.h"
#include "simulation/perturbations.h"

namespace cpa::bench {

/// One forked fleet worker as seen by the parent.
struct FleetWorker {
  pid_t pid = -1;
  int control_fd = -1;  ///< write end; closing it tells the worker to exit
  std::uint32_t port = 0;
};

/// Forks one worker: a `ConsensusServer` behind a `TcpTransport` —
/// `cpa_server --tcp` minus flag parsing — that reports its bound port
/// over a pipe and serves until its control pipe hits EOF. A nonzero
/// `tcp_options.port` rebinds a fixed port (a respawn). The child closes
/// every live (`>= 0`) control fd of `siblings`, or their EOFs would never
/// arrive. See the fork rule above.
FleetWorker ForkFleetWorker(const ConsensusServerOptions& server_options,
                            const TcpTransportOptions& tcp_options,
                            const std::vector<FleetWorker>& siblings);

/// Closes the worker's control pipe and reaps it; CHECK-fails unless it
/// exited cleanly. Leaves `pid` and `control_fd` at -1.
void StopFleetWorker(FleetWorker& worker);

/// The JSON `open` request for `session` under `config`.
std::string OpenRequest(const std::string& session, const EngineConfig& config);

/// CHECK-fails unless `frame` is a JSON reply carrying `"ok":true`.
void CheckJsonOk(const server::Frame& frame, const char* what);

/// Decodes a binary reply; CHECK-fails on a decode error or an error reply.
server::BinaryResponse CheckBinaryOk(const server::Frame& frame, const char* what);

/// Everything one replay measured.
struct ReplayResult {
  double wall_s = 0.0;  ///< from the herd release to the last close
  std::size_t answers = 0;
  std::size_t peak_connections = 0;
  std::vector<double> observe_ms;   ///< one per batch per session
  std::vector<double> snapshot_ms;  ///< refresh snapshots, with predictions
  std::vector<double> poll_ms;      ///< cached polls, with predictions
  std::vector<std::vector<LabelSet>> final_predictions;  ///< per session
  TcpTransportStats stats;  ///< the listener's counters, after Shutdown
};

/// Serves `handler` on one loopback `TcpTransport` and replays one
/// session per plan (`stream-<s>`, opened under `config`), each on its own
/// connection and client thread. Every client opens its session, then all
/// are released together once every connection is up; per batch each
/// sends an observe, a refresh snapshot and a cached poll (both with
/// predictions), then finalizes with predictions and closes. `binary`
/// sends the hot ops through the binary codec; control ops are JSON
/// frames either way. Any failed request CHECK-fails.
ReplayResult ReplaySessions(FrameHandler& handler, const EngineConfig& config,
                            const Dataset& dataset,
                            const std::vector<BatchPlan>& plans, bool binary);

/// Adds one replay's rows under `<prefix>_`: wall, answers/s, peak
/// connections, p50/p95/p99 per op, and the transport's frames per recv(2)
/// and partial writes.
void AddReplayRows(BenchReport& report, const std::string& prefix,
                   const ReplayResult& result);

}  // namespace cpa::bench

#endif  // CPA_BENCH_LOAD_DRIVER_H_
