#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

/// \file report.h
/// \brief The benchmark's result: run options, the samples every workload
/// fills, the metric set, and the one-line JSON result.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \brief Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string server_path;    ///< the cpa_server binary under test
  std::string expected_path;  ///< recorded set_f1 values (expected.json)
  std::string commit;         ///< source revision, for provenance
};

/// \brief One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief Named metrics in insertion order.
class Metrics {
 public:
  /// Adds or replaces `name`. A value that is not finite (a ratio over an
  /// empty sample) is reported as 0, so the result line stays valid JSON.
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// \brief Pass/fail state and op counts of a run. Any failed op or output
/// check makes the run incorrect.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one op; a non-empty `error` marks it failed.
  void CountOp(const std::string& error = "");

  /// Records a failed output check (and prints it to stderr).
  void Fail(const std::string& why);

  /// Adds another thread's counts and failures.
  void Merge(const RunResult& other);
};

/// \brief What every workload measures, whatever its layer path.
struct EndToEndSamples {
  std::vector<double> setup_s;      ///< one per set-up repetition
  std::vector<double> consensus_s;  ///< one per finalized session
  std::uint64_t answers = 0;        ///< answers acknowledged in the window
  double ingest_wall_s = 0.0;       ///< wall time those answers took
  std::vector<double> observe_ms;
  std::vector<double> refresh_ms;
  std::vector<double> poll_ms;
  std::vector<double> f1;  ///< final consensus vs ground truth, per session
  double peak_rss_mb = 0.0;
};

/// Adds every end-to-end metric (BENCHMARK.json `end_to_end`): each is
/// computed per chunk of the run and the median over chunks is reported.
/// Stderr gets the per-chunk values, sample counts and the percentile each
/// tail was taken at.
void AddEndToEndMetrics(const std::vector<EndToEndSamples>& chunks, Metrics& metrics);

/// Peak resident set of this process (getrusage), in MB.
double SelfPeakRssMb();

/// One JSON line of provenance: nproc, SIMD level, build, compiler, seed,
/// commit, workload.
std::string ProvenanceLine(const RunOptions& options);

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
std::string ResultLine(const RunResult& result, const Metrics& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
