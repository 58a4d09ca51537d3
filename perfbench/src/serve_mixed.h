#ifndef PERFBENCH_SERVE_MIXED_H_
#define PERFBENCH_SERVE_MIXED_H_

/// \file serve_mixed.h
/// \brief The `serve-mixed` workload: the real `cpa_server --tcp
/// --num-threads 2` process under one client process with 4 connections.
///
/// - 2 writer connections (one thread each) run closed loop: fresh
///   "CPA-SVI" sessions of the topic paper dataset at scale 0.35 in 10
///   arrival batches; per batch a binary observe then a binary refresh
///   snapshot with predictions; then finalize and close.
/// - 2 reader connections, multiplexed on the timing thread, run open loop
///   at 200 cached polls/s each (`refresh=false`, predictions included)
///   against 2 catalog sessions loaded during set-up. A poll's latency is
///   timed from when it was due.
///
/// The client thus uses 3 threads and 4 connections.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_stats.h"
#include "checks.h"
#include "data/dataset.h"
#include "engine/engine_config.h"
#include "report.h"
#include "server/framing.h"
#include "simulation/perturbations.h"

namespace perfbench {

inline constexpr std::size_t kWriterConnections = 2;
inline constexpr std::size_t kReaderConnections = 2;
inline constexpr double kPollIntervalMs = 5.0;  ///< 200 polls/s per reader
inline constexpr std::size_t kArrivalBatches = 10;

/// End-to-end metrics are taken per chunk of about this many seconds and
/// reported as the median over chunks, so a burst of load from outside the
/// benchmark that hits one chunk does not move them.
inline constexpr double kChunkSeconds = 10.0;

/// The topic dataset is generated from this fixed seed; the run seed
/// drives every arrival schedule. At 700 items the generated crowd varies
/// enough between seeds to move session cost by ±20%, which would swamp
/// the run-to-run comparison the benchmark exists for.
inline constexpr std::uint64_t kTopicDatasetSeed = 20180417;

/// \brief Generated inputs of `serve-mixed`.
struct ServeMixedInputs {
  std::uint64_t seed = 0;     ///< drives the arrival schedules
  cpa::Dataset dataset;       ///< topic paper dataset at scale 0.35
  cpa::EngineConfig config;   ///< "CPA-SVI" sized for the dataset
};

ServeMixedInputs MakeServeMixed(std::uint64_t seed);

/// The arrival schedule of stream `stream` (catalog c uses c, writer
/// sessions use 100 + 2k + w): a pure function of seed and stream id.
cpa::BatchPlan ArrivalPlan(const ServeMixedInputs& inputs, std::uint64_t stream);

/// The JSON `open` request of `session` with `config`.
std::string OpenRequest(const std::string& session, const cpa::EngineConfig& config);

/// The answers of one batch, in batch order.
std::vector<cpa::Answer> BatchAnswers(const cpa::Dataset& dataset,
                                      const std::vector<std::size_t>& batch);

/// \brief One blocking framed-protocol connection whose descriptor can be
/// polled, so one thread can keep several open-loop readers in flight.
class FrameConn {
 public:
  static cpa::Result<FrameConn> Connect(std::uint16_t port);

  FrameConn() = default;
  FrameConn(FrameConn&& other) noexcept;
  FrameConn& operator=(FrameConn&& other) noexcept;
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;
  ~FrameConn() { Close(); }

  cpa::Status Send(cpa::server::FrameKind kind, std::string_view payload);

  /// Blocks until one whole frame arrived.
  cpa::Result<cpa::server::Frame> Read();

  /// One `recv` (call when the descriptor polled readable); returns a frame
  /// once one is complete.
  cpa::Result<std::optional<cpa::server::Frame>> ReadAvailable();

  cpa::Result<cpa::server::Frame> Roundtrip(cpa::server::FrameKind kind,
                                            std::string_view payload);

  int fd() const { return fd_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  void Close();

 private:
  int fd_ = -1;
  std::uint64_t frames_sent_ = 0;
  cpa::server::FrameDecoder decoder_;
};

/// \brief A spawned `cpa_server --tcp --num-threads 2`, stopped by SIGTERM
/// (or killed and reaped by the destructor if still running).
class ServerProcess {
 public:
  /// Spawns the binary and waits for its port announcement on stderr.
  static cpa::Result<std::unique_ptr<ServerProcess>> Spawn(const std::string& path);

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess();

  std::uint16_t port() const { return port_; }

  /// The server's peak resident set (`VmHWM`), in MB.
  cpa::Result<double> PeakRssMb() const;

  /// SIGTERM, then reads stderr to EOF and reaps the process. Returns the
  /// whole stderr text (which ends with the shutdown stats lines).
  cpa::Result<std::string> Stop();

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string stderr_text_;
};

/// \brief Everything one `serve-mixed` run measured.
struct ServeMixedOutcome {
  EndToEndSamples samples;              ///< the whole run
  std::vector<EndToEndSamples> chunks;  ///< the run cut by completion time
  ServerStats stats;
  std::vector<double> poll_late_ms;
  std::size_t writer_sessions = 0;
  /// `consensus_s` medians of the untraced and traced halves of a split
  /// run (trace.overhead_share); 0 when the run was not split.
  double untraced_consensus_s = 0.0;
  double traced_consensus_s = 0.0;
};

/// Sets up the server 5 times (setup_s is their median), then measures
/// for `seconds` on the last one. With `split_trace` the window is two
/// halves, the second recording spans into `spans`. Checks every reply,
/// the shutdown stats, and each writer's first finalized session against
/// an in-process replay of the same arrival schedule.
ServeMixedOutcome RunServeMixed(const ServeMixedInputs& inputs, const RunOptions& options,
                                double seconds, bool split_trace, SpanLog* spans,
                                RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_MIXED_H_
