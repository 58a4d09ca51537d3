#include "checks.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json.h"
#include "util/string_utils.h"

namespace perfbench {
namespace {

/// The first line of `text` that starts with `prefix`, without its newline.
std::optional<std::string> LineWithPrefix(std::string_view text, std::string_view prefix) {
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(begin, end - begin);
    if (line.substr(0, prefix.size()) == prefix) return std::string(line);
    begin = end + 1;
  }
  return std::nullopt;
}

}  // namespace

double ServerStats::FramesPerRecv() const {
  return recv_calls > 0 ? static_cast<double>(frames_in) / static_cast<double>(recv_calls)
                        : 0.0;
}

double ServerStats::SendsPerFrame() const {
  return frames_out > 0 ? static_cast<double>(send_calls) / static_cast<double>(frames_out)
                        : 0.0;
}

cpa::Result<ServerStats> ParseServerStats(std::string_view stderr_text) {
  const auto served = LineWithPrefix(stderr_text, "cpa_server: served ");
  const auto syscalls = LineWithPrefix(stderr_text, "cpa_server: syscalls: ");
  if (!served || !syscalls) {
    return cpa::Status::NotFound("cpa_server shutdown stats lines missing");
  }
  ServerStats stats;
  unsigned long long in = 0, out = 0, conns = 0, framing = 0;
  if (std::sscanf(served->c_str(),
                  "cpa_server: served %llu frames in / %llu out over %llu "
                  "connections (%llu framing errors",
                  &in, &out, &conns, &framing) != 4) {
    return cpa::Status::InvalidArgument("malformed served line: " + *served);
  }
  unsigned long long recvs = 0, sends = 0, partial = 0, wouldblock = 0;
  double frames_per_recv = 0.0;
  if (std::sscanf(syscalls->c_str(),
                  "cpa_server: syscalls: %llu recvs (%lf frames/recv), %llu sends, "
                  "%llu partial writes, %llu wouldblock",
                  &recvs, &frames_per_recv, &sends, &partial, &wouldblock) != 5) {
    return cpa::Status::InvalidArgument("malformed syscalls line: " + *syscalls);
  }
  stats.frames_in = in;
  stats.frames_out = out;
  stats.connections = conns;
  stats.framing_errors = framing;
  stats.recv_calls = recvs;
  stats.send_calls = sends;
  stats.partial_writes = partial;
  stats.wouldblock_events = wouldblock;
  return stats;
}

cpa::Status ComparePredictions(const std::vector<cpa::LabelSet>& expected,
                               const std::vector<cpa::LabelSet>& actual) {
  if (expected.size() != actual.size()) {
    return cpa::Status::Internal(cpa::StrFormat("prediction count %zu != expected %zu",
                                                actual.size(), expected.size()));
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!(expected[i] == actual[i])) {
      return cpa::Status::Internal(cpa::StrFormat(
          "item %zu predicted %s, expected %s", i, actual[i].ToString().c_str(),
          expected[i].ToString().c_str()));
    }
  }
  return cpa::Status::OK();
}

cpa::Result<std::optional<double>> RecordedF1(const std::string& path,
                                              const std::string& workload,
                                              std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) return cpa::Status::NotFound("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  CPA_ASSIGN_OR_RETURN(const cpa::JsonValue doc, cpa::JsonValue::Parse(text.str()));
  const cpa::JsonValue* table = doc.Find("set_f1");
  const cpa::JsonValue* by_seed = table != nullptr ? table->Find(workload) : nullptr;
  const cpa::JsonValue* value =
      by_seed != nullptr ? by_seed->Find(std::to_string(seed)) : nullptr;
  if (value == nullptr) return std::optional<double>();
  return std::optional<double>(value->number_value());
}

bool F1Matches(double recorded, double measured) {
  return std::fabs(recorded - measured) <= 1e-9;
}

}  // namespace perfbench
