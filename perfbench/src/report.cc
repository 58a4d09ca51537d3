#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>

#include "bench_stats.h"
#include "core/sweep/simd.h"
#include "util/json.h"
#include "util/string_utils.h"

namespace perfbench {

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: %s is not finite; reported as 0\n", name.c_str());
    value = 0.0;
  }
  for (Metric& item : items_) {
    if (item.name == name) {
      item = {name, value, unit};
      return;
    }
  }
  items_.push_back({name, value, unit});
}

void RunResult::CountOp(const std::string& error) {
  ++attempted;
  if (!error.empty()) {
    ++failed;
    Fail(error);
  }
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
}

void RunResult::Merge(const RunResult& other) {
  correct = correct && other.correct;
  attempted += other.attempted;
  failed += other.failed;
}

namespace {

/// Every end-to-end metric of one chunk; `notes` gets, per tail metric, the
/// percentile actually used and the sample count.
Metrics ChunkMetrics(const EndToEndSamples& samples, std::vector<std::string>& notes) {
  Metrics metrics;
  const auto tail = [&](const char* name, const std::vector<double>& values,
                        double wanted) {
    const Tail t = TailPercentile(values, wanted);
    char note[128];
    std::snprintf(note, sizeof(note), "p%.2f of %zu", t.percentile, values.size());
    notes.emplace_back(note);
    metrics.Set(name, t.value, "ms");
  };
  metrics.Set("setup_s", Median(samples.setup_s), "s");
  metrics.Set("consensus_s", Median(samples.consensus_s), "s");
  metrics.Set("answers_per_s",
              samples.ingest_wall_s > 0.0
                  ? static_cast<double>(samples.answers) / samples.ingest_wall_s
                  : 0.0,
              "1/s");
  tail("observe_p50_ms", samples.observe_ms, 50.0);
  tail("observe_p90_ms", samples.observe_ms, 90.0);
  tail("observe_p99_ms", samples.observe_ms, 99.0);
  tail("refresh_p50_ms", samples.refresh_ms, 50.0);
  tail("refresh_p99_ms", samples.refresh_ms, 99.0);
  tail("poll_p50_ms", samples.poll_ms, 50.0);
  metrics.Set("set_f1", Median(samples.f1), "ratio");
  metrics.Set("peak_rss_mb", samples.peak_rss_mb, "MB");
  return metrics;
}

}  // namespace

void AddEndToEndMetrics(const std::vector<EndToEndSamples>& chunks, Metrics& metrics) {
  std::vector<Metrics> per_chunk;
  std::vector<std::vector<std::string>> notes(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    per_chunk.push_back(ChunkMetrics(chunks[c], notes[c]));
  }
  if (per_chunk.empty()) return;
  for (std::size_t m = 0; m < per_chunk.front().items().size(); ++m) {
    const Metric& first = per_chunk.front().items()[m];
    std::vector<double> values;
    std::string line;
    for (const Metrics& chunk : per_chunk) {
      values.push_back(chunk.items()[m].value);
      line += cpa::StrFormat(" %g", values.back());
    }
    metrics.Set(first.name, Median(values), first.unit);
    std::fprintf(stderr, "perfbench: %-15s %-3s per chunk:%s\n", first.name.c_str(),
                 first.unit.c_str(), line.c_str());
  }
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    std::string line;
    for (const std::string& note : notes[c]) line += cpa::StrFormat(" [%s]", note.c_str());
    std::fprintf(stderr,
                 "perfbench: chunk %zu: %zu set-ups, %zu sessions, %llu answers in %.3f s;"
                 " tails%s\n",
                 c, chunks[c].setup_s.size(), chunks[c].consensus_s.size(),
                 static_cast<unsigned long long>(chunks[c].answers), chunks[c].ingest_wall_s,
                 line.c_str());
  }
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string ProvenanceLine(const RunOptions& options) {
  cpa::JsonValue::Object fields;
  fields["provenance"] = cpa::JsonValue(true);
  fields["nproc"] = cpa::JsonValue(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  fields["simd"] = cpa::JsonValue(cpa::simd::SimdReportLine());
  fields["build_type"] = cpa::JsonValue(std::string(PERFBENCH_BUILD_TYPE));
  fields["compiler"] = cpa::JsonValue(std::string(PERFBENCH_COMPILER));
  fields["seed"] = cpa::JsonValue(std::to_string(options.seed));
  fields["commit"] = cpa::JsonValue(options.commit);
  fields["workload"] = cpa::JsonValue(options.workload);
  fields["trace"] = cpa::JsonValue(options.trace);
  return cpa::JsonValue(std::move(fields)).DumpCompact();
}

std::string ResultLine(const RunResult& result, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics.items()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
