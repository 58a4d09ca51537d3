#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

/// \file checks.h
/// \brief Output checks of the benchmark and the parser for the stats
/// lines `cpa_server` prints to stderr when it shuts down.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/label_set.h"
#include "util/status.h"

namespace perfbench {

/// \brief Counters from `cpa_server`'s two shutdown lines:
///   cpa_server: served <in> frames in / <out> out over <conns> connections
///     (<framing> framing errors, ...)
///   cpa_server: syscalls: <recvs> recvs (<x> frames/recv), <sends> sends,
///     <partial> partial writes, <wouldblock> wouldblock
struct ServerStats {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t connections = 0;
  std::uint64_t framing_errors = 0;
  std::uint64_t recv_calls = 0;
  std::uint64_t send_calls = 0;
  std::uint64_t partial_writes = 0;
  std::uint64_t wouldblock_events = 0;

  double FramesPerRecv() const;
  double SendsPerFrame() const;
};

/// Parses both stats lines out of the server's whole stderr text. Fails
/// when either line is missing or malformed.
cpa::Result<ServerStats> ParseServerStats(std::string_view stderr_text);

/// OK when both prediction vectors are identical; otherwise names the
/// first differing item.
cpa::Status ComparePredictions(const std::vector<cpa::LabelSet>& expected,
                               const std::vector<cpa::LabelSet>& actual);

/// The `set_f1` recorded for (`workload`, `seed`) in the expectations file
/// (perfbench/expected.json), or nullopt when none is recorded.
cpa::Result<std::optional<double>> RecordedF1(const std::string& path,
                                              const std::string& workload,
                                              std::uint64_t seed);

/// True when a measured F1 matches a recorded one. Fits are deterministic,
/// so the tolerance only absorbs the decimal round trip of the record.
bool F1Matches(double recorded, double measured);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
