#include "bench/bench_util.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/sweep/simd.h"
#include "gtest/gtest.h"

namespace cpa::bench {
namespace {

BenchConfig TestConfig() {
  BenchConfig config;
  config.scale = 0.5;
  config.seed = 42;
  config.cpa_iterations = 7;
  config.runs = 3;
  config.out_dir = ::testing::TempDir();
  return config;
}

TEST(JsonValueTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null").value().is_null());
  EXPECT_TRUE(JsonValue::Parse("true").value().bool_value());
  EXPECT_FALSE(JsonValue::Parse("false").value().bool_value());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-12.5e2").value().number_value(), -1250.0);
  EXPECT_EQ(JsonValue::Parse("\"a\\nb\\\"c\\\\\"").value().string_value(),
            "a\nb\"c\\");
}

TEST(JsonValueTest, ParsesNestedContainers) {
  auto parsed = JsonValue::Parse(R"( {"a": [1, 2, {"b": true}], "c": {}} )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  ASSERT_EQ(doc.kind(), JsonValue::Kind::kObject);
  const JsonValue* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->array()[0].number_value(), 1.0);
  EXPECT_TRUE(a->array()[2].Find("b")->bool_value());
  EXPECT_TRUE(doc.Find("c")->object().empty());
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("12 34").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
}

TEST(JsonValueTest, DumpsNonFiniteNumbersAsNull) {
  EXPECT_EQ(JsonValue(std::nan("")).Dump(), "null");
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).Dump(), "null");
  // The file stays parseable even if a metric goes non-finite.
  JsonValue::Object object;
  object["bad"] = JsonValue(std::nan(""));
  auto reparsed = JsonValue::Parse(JsonValue(std::move(object)).Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(reparsed.value().Find("bad")->is_null());
}

TEST(JsonValueTest, DumpParseRoundTripPreservesStructure) {
  JsonValue::Object object;
  object["pi"] = JsonValue(3.141592653589793);
  object["text"] = JsonValue(std::string("line1\nline2\t\"quoted\""));
  object["flags"] = JsonValue(JsonValue::Array{JsonValue(true), JsonValue()});
  const JsonValue original{std::move(object)};

  auto reparsed = JsonValue::Parse(original.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  const JsonValue& copy = reparsed.value();
  EXPECT_DOUBLE_EQ(copy.Find("pi")->number_value(), 3.141592653589793);
  EXPECT_EQ(copy.Find("text")->string_value(), "line1\nline2\t\"quoted\"");
  ASSERT_EQ(copy.Find("flags")->array().size(), 2u);
  EXPECT_TRUE(copy.Find("flags")->array()[0].bool_value());
  EXPECT_TRUE(copy.Find("flags")->array()[1].is_null());
}

TEST(PercentileTest, InterpolatesBetweenRanksOfUnsortedSample) {
  const std::vector<double> values = {40.0, 10.0, 30.0, 20.0, 50.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 50.0);
  // Rank 0.9 * 4 = 3.6 sits 60% of the way from 40 to 50.
  EXPECT_DOUBLE_EQ(Percentile(values, 0.9), 46.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(BenchReportTest, ToJsonIsValidJsonWithRequiredKeys) {
  BenchReport report("unit_test", TestConfig());
  report.Add("fit_time", 12.5, "ms");
  report.Add("accuracy", 0.875, "fraction");

  auto parsed = JsonValue::Parse(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  for (std::string_view key : BenchReport::kRequiredKeys) {
    EXPECT_NE(doc.Find(std::string(key)), nullptr) << "missing key " << key;
  }
  EXPECT_EQ(doc.Find("bench")->string_value(), "unit_test");

  const JsonValue* config = doc.Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_DOUBLE_EQ(config->Find("scale")->number_value(), 0.5);
  EXPECT_DOUBLE_EQ(config->Find("seed")->number_value(), 42.0);
  EXPECT_DOUBLE_EQ(config->Find("cpa_iterations")->number_value(), 7.0);
  EXPECT_DOUBLE_EQ(config->Find("runs")->number_value(), 3.0);
  // The kernel level is recorded so scalar and AVX2 runs are never
  // mistaken for comparable timings.
  ASSERT_NE(config->Find("simd"), nullptr);
  EXPECT_EQ(config->Find("simd")->string_value(),
            simd::LevelName(simd::ActiveLevel()));
  ASSERT_NE(config->Find("simd_forced"), nullptr);
  ASSERT_NE(config->Find("nproc"), nullptr);
  EXPECT_DOUBLE_EQ(config->Find("nproc")->number_value(),
                   static_cast<double>(std::thread::hardware_concurrency()));

  const JsonValue* results = doc.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array().size(), 2u);
  const JsonValue& row = results->array()[0];
  EXPECT_EQ(row.Find("name")->string_value(), "fit_time");
  EXPECT_DOUBLE_EQ(row.Find("value")->number_value(), 12.5);
  EXPECT_EQ(row.Find("unit")->string_value(), "ms");
  EXPECT_EQ(results->array()[1].Find("name")->string_value(), "accuracy");
}

TEST(BenchReportTest, WriteEmitsParsableFileAtReportedPath) {
  BenchReport report("write_round_trip", TestConfig());
  report.Add("metric", -0.25, "score");

  const Status written = report.Write();
  ASSERT_TRUE(written.ok()) << written.ToString();
  EXPECT_NE(report.path().find("BENCH_write_round_trip.json"),
            std::string::npos);

  std::ifstream in(report.path());
  ASSERT_TRUE(in.good()) << "report file missing: " << report.path();
  std::stringstream contents;
  contents << in.rdbuf();

  auto parsed = JsonValue::Parse(contents.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("bench")->string_value(), "write_round_trip");
  std::remove(report.path().c_str());
}

TEST(BenchReportTest, WriteFailsWithStatusOnBadDirectory) {
  BenchConfig config = TestConfig();
  config.out_dir = "/nonexistent/surely/missing";
  BenchReport report("bad_dir", config);
  const Status written = report.Write();
  EXPECT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace cpa::bench
