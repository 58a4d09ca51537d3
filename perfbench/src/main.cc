/// The repository benchmark binary. One run measures one workload for a
/// fixed time and prints, as the last line of stdout, one JSON object with
/// `correct`, `attempted`, `failed` and `metrics`:
///
///   perfbench --workload offline-fit|online-stream|serve-mixed --seed N
///             --seconds S --trace 0|1 --server PATH --expected PATH
///             [--commit REV]
///
/// `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
/// per-layer metrics (see perfbench/README.md). perfbench/run.py builds the
/// binaries and passes the paths; run it rather than this binary.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_stats.h"
#include "checks.h"
#include "in_process.h"
#include "layers.h"
#include "report.h"
#include "serve_mixed.h"
#include "util/flags.h"
#include "util/string_utils.h"

using namespace perfbench;

namespace {

/// Seconds of the short serve-mixed run a traced in-process run makes for
/// the transport and client metrics.
constexpr double kTracedServeSeconds = 4.0;

/// Compares the first session's F1 with the one recorded for the seed.
void CheckRecordedF1(const RunOptions& options, double f1, RunResult& result) {
  auto recorded = RecordedF1(options.expected_path, options.workload, options.seed);
  if (!recorded.ok()) {
    result.Fail(recorded.status().ToString());
    return;
  }
  if (!recorded.value()) {
    std::fprintf(stderr,
                 "perfbench: no set_f1 recorded for %s seed %llu; checked that every "
                 "session reproduced the first\n",
                 options.workload.c_str(), static_cast<unsigned long long>(options.seed));
    return;
  }
  if (!F1Matches(*recorded.value(), f1)) {
    result.Fail(cpa::StrFormat("set_f1 %.17g differs from the recorded %.17g", f1,
                               *recorded.value()));
  }
}

void PrintSpans(const SpanLog& spans) {
  for (const std::string& line : spans.Summary()) {
    std::fprintf(stderr, "perfbench: %s\n", line.c_str());
  }
}

/// The end-to-end run of an in-process workload.
void RunInProcess(const RunOptions& options, const InProcessWorkload& workload,
                  Metrics& metrics, RunResult& result) {
  const std::vector<double> setup_s = MeasureOpenSeconds(workload.config, result);
  std::vector<EndToEndSamples> sessions;
  std::vector<cpa::LabelSet> predictions;
  RunInProcessSessions(workload, options.seconds, nullptr, sessions, result, predictions);
  const double peak_rss_mb = SelfPeakRssMb();
  for (EndToEndSamples& session : sessions) {
    session.setup_s = setup_s;
    session.peak_rss_mb = peak_rss_mb;
  }
  CheckRecordedF1(options, sessions.empty() ? 0.0 : sessions.front().f1.front(), result);
  AddEndToEndMetrics(sessions, metrics);
}

/// The traced run: the workload's own loop in an untraced and a traced
/// half (trace.overhead_share), then every layer probe.
void RunTraced(const RunOptions& options, Metrics& metrics, RunResult& result) {
  const bool serve = options.workload == "serve-mixed";
  SpanLog spans;
  double overhead_share = 0.0;
  const ServeMixedInputs serve_inputs = MakeServeMixed(options.seed);
  ServeMixedOutcome serve_outcome;
  std::uint64_t serve_ops = 0;
  cpa::Dataset scalability;
  if (serve) {
    const std::uint64_t before = result.attempted;
    serve_outcome = RunServeMixed(serve_inputs, options, options.seconds,
                                  /*split_trace=*/true, &spans, result);
    serve_ops = result.attempted - before;
    overhead_share =
        serve_outcome.traced_consensus_s / serve_outcome.untraced_consensus_s - 1.0;
    scalability = MakeScalabilityInputs(options.seed);
  } else {
    const InProcessWorkload workload = options.workload == "offline-fit"
                                           ? MakeOfflineFit(options.seed)
                                           : MakeOnlineStream(options.seed);
    std::vector<EndToEndSamples> untraced, traced;
    std::vector<cpa::LabelSet> first, second;
    RunInProcessSessions(workload, options.seconds / 2, nullptr, untraced, result, first);
    RunInProcessSessions(workload, options.seconds / 2, &spans, traced, result, second);
    if (untraced.empty() || traced.empty()) return;  // an op failed; already counted
    const cpa::Status same = ComparePredictions(first, second);
    if (!same.ok()) result.Fail("traced session differs: " + same.ToString());
    CheckRecordedF1(options, untraced.front().f1.front(), result);
    const auto median_consensus = [](const std::vector<EndToEndSamples>& sessions) {
      std::vector<double> seconds;
      for (const EndToEndSamples& session : sessions) seconds.push_back(session.consensus_s[0]);
      return Median(seconds);
    };
    overhead_share = median_consensus(traced) / median_consensus(untraced) - 1.0;
    scalability = workload.dataset;
    const std::uint64_t before = result.attempted;
    serve_outcome = RunServeMixed(serve_inputs, options, kTracedServeSeconds,
                                  /*split_trace=*/false, nullptr, result);
    serve_ops = result.attempted - before;
  }
  ProbeOfflineLayers(scalability, options.seed, metrics, result);
  ProbeOnlineLayers(scalability, options.seed, metrics, result);
  const HandlerCost handler = ProbeServerLayer(serve_inputs, metrics, result);
  AddTransportMetrics(serve_outcome, handler, serve_ops, metrics);
  metrics.Set("trace.overhead_share", overhead_share, "ratio");
  PrintSpans(spans);
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = cpa::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", flags.status().ToString().c_str());
    return 2;
  }
  RunOptions options;
  options.workload = flags.value().GetString("workload", "");
  // Parsed as unsigned 64-bit: `Flags::GetInt` would silently fall back to
  // its default on seeds above 2^63.
  const std::string seed = flags.value().GetString("seed", "20180417");
  char* seed_end = nullptr;
  options.seed = std::strtoull(seed.c_str(), &seed_end, 10);
  if (seed.empty() || seed_end == nullptr || *seed_end != '\0' || seed[0] == '-') {
    std::fprintf(stderr, "perfbench: --seed must be an unsigned integer\n");
    return 2;
  }
  options.seconds = flags.value().GetDouble("seconds", 10.0);
  options.trace = flags.value().GetInt("trace", 0) != 0;
  options.server_path = flags.value().GetString("server", "");
  options.expected_path = flags.value().GetString("expected", "");
  options.commit = flags.value().GetString("commit", "unknown");
  if (options.workload != "offline-fit" && options.workload != "online-stream" &&
      options.workload != "serve-mixed") {
    std::fprintf(stderr,
                 "perfbench: --workload must be offline-fit, online-stream or "
                 "serve-mixed\n");
    return 2;
  }
  if (options.seconds <= 0.0 || options.server_path.empty() ||
      options.expected_path.empty()) {
    std::fprintf(stderr, "perfbench: --seconds > 0, --server and --expected required\n");
    return 2;
  }
  std::printf("%s\n", ProvenanceLine(options).c_str());
  std::fflush(stdout);

  Metrics metrics;
  RunResult result;
  if (options.trace) {
    RunTraced(options, metrics, result);
  } else if (options.workload == "serve-mixed") {
    ServeMixedOutcome outcome = RunServeMixed(MakeServeMixed(options.seed), options,
                                              options.seconds, false, nullptr, result);
    AddEndToEndMetrics(outcome.chunks, metrics);
  } else {
    RunInProcess(options,
                 options.workload == "offline-fit" ? MakeOfflineFit(options.seed)
                                                   : MakeOnlineStream(options.seed),
                 metrics, result);
  }
  std::printf("%s\n", ResultLine(result, metrics).c_str());
  return 0;
}
