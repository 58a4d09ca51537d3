#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double rank = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * n);
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

double SupportedPercentile(std::size_t n, double wanted) {
  if (n <= kMinBeyond) return 50.0;
  // Nearest rank ceil(p n / 100) leaves n - rank samples beyond it; the
  // largest p with n - rank >= kMinBeyond is 100 (n - kMinBeyond) / n.
  const double cap =
      100.0 * static_cast<double>(n - kMinBeyond) / static_cast<double>(n);
  return std::max(50.0, std::min(wanted, cap));
}

Tail TailPercentile(const std::vector<double>& values, double wanted) {
  Tail tail;
  tail.percentile = SupportedPercentile(values.size(), wanted);
  tail.value = Percentile(values, tail.percentile);
  return tail;
}

double NowMs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   epoch)
      .count();
}

std::int64_t SpanLog::Record(const char* name, double start_ms, double end_ms,
                             std::int64_t parent, std::uint64_t trace) {
  spans_.push_back({name, start_ms, end_ms, parent, trace});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::Merge(SpanLog&& other) {
  const std::int64_t base = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
  other.spans_.clear();
}

std::vector<std::string> SpanLog::Summary() const {
  // Children of one parent never overlap (each is a blocking call made by
  // the parent's thread), so covered time is the plain sum.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] += span.end_ms - span.start_ms;
    }
  }
  struct Row {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t s = 0; s < spans_.size(); ++s) {
    Row& row = rows[spans_[s].name];
    const double duration = spans_[s].end_ms - spans_[s].start_ms;
    ++row.count;
    row.total_ms += duration;
    row.self_ms += duration - covered[s];
  }
  std::vector<std::string> lines;
  for (const auto& [name, row] : rows) {
    char line[256];
    std::snprintf(line, sizeof(line), "span %s count=%zu total_ms=%.3f self_ms=%.3f",
                  name.c_str(), row.count, row.total_ms, row.self_ms);
    lines.emplace_back(line);
  }
  return lines;
}

}  // namespace perfbench
