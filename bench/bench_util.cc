#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <thread>
#include <utility>

#include "core/sweep/simd.h"
#include "util/logging.h"

namespace cpa::bench {
namespace {

/// Upper bounds of `--cpa-iterations` and `--runs`, and of `--seed`.
constexpr long long kMaxCount = 1'000'000;
constexpr long long kMaxSeed = std::numeric_limits<long long>::max();

}  // namespace

Flags ParseBenchFlags(int argc, char** argv) {
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "flag error: %s\n", parsed.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(parsed).value();
}

BenchConfig ParseBenchConfig(const Flags& flags, double default_scale,
                             std::size_t default_runs) {
  BenchConfig config;
  config.scale = flags.GetDouble("scale", default_scale);
  config.seed =
      static_cast<std::uint64_t>(flags.GetIntInRange("seed", 20180417, 0, kMaxSeed));
  config.cpa_iterations =
      static_cast<std::size_t>(flags.GetIntInRange("cpa-iterations", 25, 1, kMaxCount));
  config.runs = static_cast<std::size_t>(
      flags.GetIntInRange("runs", static_cast<long long>(default_runs), 1, kMaxCount));
  config.out_dir = flags.GetString("out-dir", ".");
  // Fail fast: benches can run for minutes, and an unwritable report
  // directory must not surface only at the final Write().
  const std::string probe = config.out_dir + "/.bench_out_dir_probe";
  if (std::FILE* f = std::fopen(probe.c_str(), "w"); f != nullptr) {
    std::fclose(f);
    std::remove(probe.c_str());
  } else {
    std::fprintf(stderr, "flag error: --out-dir %s is not writable\n",
                 config.out_dir.c_str());
    std::exit(2);
  }
  return config;
}

void CheckBenchFlags(const Flags& flags) {
  const Status status = flags.CheckAllRead();
  if (!status.ok()) {
    std::fprintf(stderr, "flag error: %s\n", status.ToString().c_str());
    std::exit(2);
  }
}

Dataset LoadPaperDataset(PaperDatasetId id, const BenchConfig& config) {
  FactoryOptions options;
  options.scale = config.scale;
  options.seed = config.seed;
  auto dataset = MakePaperDataset(id, options);
  CPA_CHECK(dataset.ok()) << dataset.status().ToString();
  return std::move(dataset).value();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

void PrintHeader(const std::string& artefact, const std::string& description,
                 const BenchConfig& config) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artefact.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("scale=%.2f of published dataset sizes, seed=%llu\n", config.scale,
              static_cast<unsigned long long>(config.seed));
  std::printf("==============================================================\n");
}

// ---------------------------------------------------------------------------
// BenchReport
// ---------------------------------------------------------------------------

BenchReport::BenchReport(std::string name, const BenchConfig& config)
    : name_(std::move(name)), config_(config) {}

void BenchReport::Add(std::string_view name, double value,
                      std::string_view unit) {
  JsonValue::Object row;
  row["name"] = JsonValue(std::string(name));
  row["value"] = JsonValue(value);
  row["unit"] = JsonValue(std::string(unit));
  results_.push_back(JsonValue(std::move(row)));
}

std::string BenchReport::ToJson() const {
  JsonValue::Object config;
  config["scale"] = JsonValue(config_.scale);
  config["seed"] = JsonValue(static_cast<double>(config_.seed));
  config["cpa_iterations"] = JsonValue(static_cast<double>(config_.cpa_iterations));
  config["runs"] = JsonValue(static_cast<double>(config_.runs));
  // Which kernel table produced these numbers — scalar/AVX2 results are
  // bit-identical but not time-identical, so reports must be comparable
  // only within a level (see BENCHMARKS.md).
  config["simd"] =
      JsonValue(std::string(simd::LevelName(simd::ActiveLevel())));
  config["simd_forced"] = JsonValue(simd::ActiveLevelForced());
  // Logical CPUs of the recording machine: thread-count columns (fig7's
  // offline-N, fig11's fleet) only compare between equal `nproc`.
  config["nproc"] = JsonValue(static_cast<double>(std::thread::hardware_concurrency()));

  JsonValue::Object report;
  report["bench"] = JsonValue(name_);
  report["config"] = JsonValue(std::move(config));
  report["results"] = JsonValue(results_);
  return JsonValue(std::move(report)).Dump() + "\n";
}

std::string BenchReport::path() const {
  return config_.out_dir + "/BENCH_" + name_ + ".json";
}

Status BenchReport::Write() const {
  const std::string file = path();
  std::ofstream out(file);
  if (!out) {
    return Status::IOError("cannot open " + file + " for writing");
  }
  out << ToJson();
  out.close();
  if (!out) {
    return Status::IOError("failed writing " + file);
  }
  CPA_LOG(kInfo) << "wrote " << file;
  return Status::OK();
}

}  // namespace cpa::bench
