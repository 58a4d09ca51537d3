#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

/// \file bench_stats.h
/// \brief Sample statistics, open-loop timing and span recording of the
/// repository benchmark.
///
/// Timings are reported as a median plus a tail percentile, and a tail is
/// only as high as the sample supports: at least `kMinBeyond` samples must
/// lie beyond it. A metric named `*_p99_*` over too few samples therefore
/// reports the highest supported percentile below 99 (never a max of a
/// handful of points), and says which one on stderr.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (`p` in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// `Percentile(values, 50)`.
double Median(std::vector<double> values);

/// The highest percentile <= `wanted` that leaves at least `kMinBeyond`
/// of `n` samples beyond its nearest-rank position; never below 50.
double SupportedPercentile(std::size_t n, double wanted);

/// A tail value and the percentile it was actually taken at.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};

/// `Percentile(values, SupportedPercentile(values.size(), wanted))`.
Tail TailPercentile(const std::vector<double>& values, double wanted);

/// \brief A fixed-rate open-loop schedule: request k is due at
/// `start + offset + k * interval` regardless of when earlier replies came.
struct OpenLoopSchedule {
  double start_ms = 0.0;
  double offset_ms = 0.0;
  double interval_ms = 5.0;

  double DueMs(std::uint64_t k) const {
    return start_ms + offset_ms + static_cast<double>(k) * interval_ms;
  }
};

/// \brief One open-loop request: when it was due, sent and answered.
struct OpenLoopRecord {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;

  /// Latency as the user of a schedule sees it: from the due time, so a
  /// stall also charges the requests queued behind it.
  double LatencyMs() const { return done_ms - due_ms; }

  /// How late the generator sent (0 when on time).
  double LatenessMs() const { return sent_ms > due_ms ? sent_ms - due_ms : 0.0; }
};

/// Milliseconds on the steady clock since an arbitrary process-wide epoch.
double NowMs();

/// \brief A span recorded around one call into a layer: name, interval,
/// and the span that caused it (`parent`, -1 for roots). Spans of one
/// session or request chain share `trace`.
struct Span {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::int64_t parent = -1;
  std::uint64_t trace = 0;
};

/// \brief In-memory span log of one thread; merged and summarised at exit.
/// A null log pointer means tracing is off: callers skip recording.
class SpanLog {
 public:
  /// Appends a span; returns its id (usable as a child's `parent`).
  std::int64_t Record(const char* name, double start_ms, double end_ms,
                      std::int64_t parent, std::uint64_t trace);

  /// Moves every span of `other` in, remapping its parent ids.
  void Merge(SpanLog&& other);

  /// Per span name: count, total milliseconds, and self milliseconds (the
  /// duration minus the part its child spans cover), one line each.
  std::vector<std::string> Summary() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
