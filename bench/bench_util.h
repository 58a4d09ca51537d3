#ifndef CPA_BENCH_BENCH_UTIL_H_
#define CPA_BENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// \brief Shared scaffolding of the paper-reproduction bench binaries.
///
/// Every bench runs standalone with defaults sized so the whole suite
/// finishes in minutes on a laptop: the paper's datasets are rebuilt at
/// `--scale` (default 0.35) of their published size with redundancy
/// preserved, which keeps every qualitative shape (who wins, by roughly
/// what factor, where the crossovers fall). Run with `--scale=1` to use
/// the published sizes.
///
/// Headline numbers are reported through `BenchReport`, which writes a
/// `BENCH_<name>.json` file so perf trajectories stay machine-readable
/// across PRs. Run benches from the repo root (or pass `--out-dir`) to
/// collect the reports there.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "simulation/dataset_factory.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"

namespace cpa::bench {

/// \brief Common bench configuration from command-line flags.
struct BenchConfig {
  double scale = 0.35;          ///< dataset scale (1 = published size)
  std::uint64_t seed = 20180417;
  std::size_t cpa_iterations = 25;
  std::size_t runs = 1;         ///< repetitions for averaged experiments
  std::string out_dir = ".";    ///< where BENCH_*.json reports land
};

/// Parses the command line; exits 2 with a message when it is malformed.
Flags ParseBenchFlags(int argc, char** argv);

/// Reads `--scale`, `--seed`, `--cpa-iterations`, `--runs`, `--out-dir`
/// from `flags`, the counts range-checked (`Flags::GetIntInRange`). Exits 2
/// with a message when `--out-dir` is not writable.
BenchConfig ParseBenchConfig(const Flags& flags, double default_scale = 0.35,
                             std::size_t default_runs = 1);

/// Exits 2, naming them, when `flags` holds a flag the bench never read or
/// a value it could not use (`Flags::CheckAllRead`), so a misspelt or
/// retired flag stops the run instead of running with defaults. Call it
/// once every flag the bench accepts is read.
void CheckBenchFlags(const Flags& flags);

/// Builds one of the five paper datasets at the configured scale.
Dataset LoadPaperDataset(PaperDatasetId id, const BenchConfig& config);

/// The `p`-quantile (`p` in [0, 1]) of `values`, linearly interpolated
/// between the two nearest ranks; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// Prints the bench banner: what paper artefact this regenerates and the
/// workload parameters in effect.
void PrintHeader(const std::string& artefact, const std::string& description,
                 const BenchConfig& config);

/// \brief Collects a bench binary's headline numbers and writes
/// `BENCH_<name>.json`.
///
/// The report is a JSON object with keys `"bench"` (the name), `"config"`
/// (scale / seed / cpa_iterations / runs / simd / simd_forced / nproc —
/// simd and simd_forced record the kernel level the numbers were measured
/// at, see core/sweep/simd.h; nproc the recording machine's logical CPUs)
/// and `"results"` (an array of
/// `{"name", "value", "unit"}` rows in insertion order). `kRequiredKeys`
/// names the top-level keys downstream tooling may rely on.
class BenchReport {
 public:
  static constexpr std::string_view kRequiredKeys[] = {"bench", "config",
                                                       "results"};

  BenchReport(std::string name, const BenchConfig& config);

  /// Appends one measurement row, e.g. `Add("vi_sweep", 12.3, "ms")`.
  void Add(std::string_view name, double value, std::string_view unit);

  /// Serializes the full report.
  std::string ToJson() const;

  /// Writes `BENCH_<name>.json` into `config.out_dir` and logs the path.
  Status Write() const;

  /// The file this report targets: `<out_dir>/BENCH_<name>.json`.
  std::string path() const;

 private:
  std::string name_;
  BenchConfig config_;
  JsonValue::Array results_;
};

}  // namespace cpa::bench

#endif  // CPA_BENCH_BENCH_UTIL_H_
