/// Tests of the benchmark's own logic: the percentile rule, open-loop
/// timing from the due time, the `cpa_server` shutdown-stats parser, the
/// prediction output check, and the result line. Exits non-zero on any
/// failure. Run with `python3 perfbench/run.py --self-test`.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "checks.h"
#include "report.h"
#include "util/json.h"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;
}

void TestPercentileRule() {
  Expect(SupportedPercentile(1000, 99.0) == 99.0, "1000 samples support p99");
  Expect(SupportedPercentile(100, 99.0) == 90.0, "100 samples cap p99 at p90");
  Expect(SupportedPercentile(100, 50.0) == 50.0, "a median is never capped upward");
  Expect(SupportedPercentile(15, 99.0) == 50.0, "too few samples fall back to the median");
  Expect(SupportedPercentile(0, 99.0) == 50.0, "empty sample");
  // Exactly kMinBeyond samples lie beyond the reported tail.
  for (std::size_t n : {20u, 101u, 400u, 1000u, 5000u}) {
    const std::vector<double> values = Ramp(n);
    const Tail tail = TailPercentile(values, 99.0);
    std::size_t beyond = 0;
    for (double v : values) beyond += v > tail.value ? 1 : 0;
    Expect(beyond >= kMinBeyond, "at least ten samples beyond the tail");
  }
  Expect(TailPercentile(Ramp(1000), 99.0).value == 990.0, "p99 of 1..1000 is 990");
  Expect(Median(Ramp(5)) == 3.0, "median of 1..5");
  Expect(Percentile({}, 50.0) == 0.0, "empty percentile");
}

void TestOpenLoop() {
  OpenLoopSchedule schedule;
  schedule.start_ms = 100.0;
  schedule.offset_ms = 2.5;
  schedule.interval_ms = 5.0;
  Expect(schedule.DueMs(0) == 102.5 && schedule.DueMs(4) == 122.5,
         "due times follow the schedule, not the replies");
  // A stall: request 0 takes 12 ms, so request 1 (due at 107.5) can only be
  // sent at 114.5. Its latency counts from when it was due.
  const OpenLoopRecord stalled{102.5, 102.5, 114.5};
  const OpenLoopRecord queued{107.5, 114.5, 115.0};
  Expect(stalled.LatencyMs() == 12.0 && stalled.LatenessMs() == 0.0, "on-time request");
  Expect(queued.LatencyMs() == 7.5, "late request latency includes the wait");
  Expect(queued.LatenessMs() == 7.0, "lateness is sent minus due");
  const OpenLoopRecord early{120.0, 119.0, 121.0};
  Expect(early.LatenessMs() == 0.0, "early sends are not late");
}

void TestStatsParser() {
  const std::string text =
      "cpa_server: listening on 127.0.0.1:4242 (transport=binary, ...)\n"
      "cpa_server: caught signal 15, draining\n"
      "cpa_server: served 1200 frames in / 1199 out over 4 connections (2 framing "
      "errors, 0 forwarded, 0 backend reconnects, 0 sessions expired)\n"
      "cpa_server: syscalls: 1300 recvs (0.9 frames/recv), 1210 sends, 3 partial "
      "writes, 5 wouldblock\n";
  const auto stats = ParseServerStats(text);
  Expect(stats.ok(), "parses both stats lines");
  if (stats.ok()) {
    const ServerStats& s = stats.value();
    Expect(s.frames_in == 1200 && s.frames_out == 1199 && s.connections == 4,
           "served line fields");
    Expect(s.framing_errors == 2, "framing errors");
    Expect(s.recv_calls == 1300 && s.send_calls == 1210 && s.partial_writes == 3 &&
               s.wouldblock_events == 5,
           "syscalls line fields");
    Expect(s.SendsPerFrame() > 1.0090 && s.SendsPerFrame() < 1.0092, "sends per frame");
  }
  Expect(!ParseServerStats("cpa_server: listening on 127.0.0.1:1\n").ok(),
         "missing lines are an error");
  Expect(!ParseServerStats("cpa_server: served x frames in\ncpa_server: syscalls: y\n").ok(),
         "malformed lines are an error");
}

void TestOutputCheck() {
  const std::vector<cpa::LabelSet> expected = {cpa::LabelSet::FromUnsorted({1, 3}),
                                               cpa::LabelSet::FromUnsorted({2}),
                                               cpa::LabelSet::FromUnsorted({0, 4})};
  Expect(ComparePredictions(expected, expected).ok(), "identical predictions pass");
  std::vector<cpa::LabelSet> perturbed = expected;
  perturbed[1] = cpa::LabelSet::FromUnsorted({2, 5});
  const cpa::Status status = ComparePredictions(expected, perturbed);
  Expect(!status.ok(), "one perturbed prediction fails the check");
  Expect(status.ToString().find("item 1") != std::string::npos, "names the item");
  perturbed.pop_back();
  Expect(!ComparePredictions(expected, perturbed).ok(), "a missing item fails the check");
  Expect(F1Matches(0.8123456789, 0.8123456789) && !F1Matches(0.8123, 0.8124),
         "recorded F1 comparison");
}

void TestResultLine() {
  RunResult result;
  result.CountOp();
  result.CountOp("boom");
  Metrics metrics;
  metrics.Set("latency_ms", 1.25, "ms");
  const auto parsed = cpa::JsonValue::Parse(ResultLine(result, metrics));
  Expect(parsed.ok(), "result line is JSON");
  if (!parsed.ok()) return;
  const cpa::JsonValue& doc = parsed.value();
  Expect(doc.object().size() == 4, "exactly four keys");
  Expect(!doc.Find("correct")->bool_value(), "a failed op makes the run incorrect");
  Expect(doc.Find("attempted")->number_value() == 2 && doc.Find("failed")->number_value() == 1,
         "op counts");
  const cpa::JsonValue* latency = doc.Find("metrics")->Find("latency_ms");
  Expect(latency != nullptr && latency->Find("value")->number_value() == 1.25 &&
             latency->Find("unit")->string_value() == "ms",
         "metric value and unit");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestOpenLoop();
  TestStatsParser();
  TestOutputCheck();
  TestResultLine();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
