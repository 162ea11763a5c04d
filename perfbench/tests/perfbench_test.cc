// Unit tests of the benchmark's percentile, report-writer and span code.
// Build and run: python3 perfbench/run.py --self-test

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> out;
  for (int i = 1; i <= n; ++i) out.push_back(i);
  return out;
}

TEST(PercentileTest, NearestRankOnOneToHundred) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0.5), 1);
}

TEST(PercentileTest, SingleSample) {
  EXPECT_EQ(Percentile({7.5}, 50), 7.5);
  EXPECT_EQ(Percentile({7.5}, 99), 7.5);
}

TEST(PercentileTest, SamplesBeyondCountsStrictlyHigherRanks) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 50), 50u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(PercentileTest, HighestSupportedNeedsTenBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 98.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
}

TEST(SummaryTest, UnsortedInputAndSupportFlag) {
  std::vector<double> v = OneTo(1000);
  std::reverse(v.begin(), v.end());
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p99, 990);
  EXPECT_TRUE(s.p99_supported);
  EXPECT_EQ(s.top_pct, 99.0);
  EXPECT_EQ(s.top, 990);
  EXPECT_EQ(s.max, 1000);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);
  EXPECT_FALSE(Summarize(OneTo(999)).p99_supported);
}

TEST(SummaryTest, EmptyAndTinyInputs) {
  EXPECT_EQ(Summarize({}).count, 0u);
  const Summary tiny = Summarize({3.0, 1.0});
  EXPECT_EQ(tiny.top_pct, 0.0);
  EXPECT_EQ(tiny.top, 3.0);
}

TEST(SummaryTest, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({5, 1, 3}), 3);
  EXPECT_EQ(Median({}), 0);
}

TEST(JsonTest, NumbersKeepEveryDigit) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(123456.78901234567), "123456.78901234567");
  EXPECT_EQ(std::stod(JsonNumber(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n\x01"), "a\\\"b\\\\c\\n\\u0001");
}

TEST(JsonTest, LongValuesAreNeverTruncated) {
  // A fixed-size row buffer once cut such objects short; the writer must
  // keep every member whatever the lengths.
  JsonObject row;
  const std::string long_name(500, 'x');
  for (int i = 0; i < 50; ++i) {
    row.Add("metric_with_a_long_name_" + std::to_string(i),
            123456789.123456789 * i);
  }
  row.Add("name", long_name);
  const std::string text = row.Render();
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
  EXPECT_NE(text.find(long_name), std::string::npos);
  EXPECT_NE(text.find("\"metric_with_a_long_name_49\": "), std::string::npos);
}

TEST(JsonTest, NestedObjectsArraysAndReplacement) {
  JsonObject inner;
  inner.Add("value", 1.5).Add("unit", "ms");
  JsonObject outer;
  outer.Add("a", inner).Add("flag", true).Add("n", uint64_t{7});
  outer.Add("n", int64_t{-3});
  outer.AddArray("list", {inner, inner});
  EXPECT_EQ(outer.Render(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"flag\": true, "
            "\"n\": -3, \"list\": [{\"value\": 1.5, \"unit\": \"ms\"}, "
            "{\"value\": 1.5, \"unit\": \"ms\"}]}");
}

TEST(MetricSetTest, RendersValueAndUnit) {
  MetricSet metrics;
  metrics.Set("read_p50_ms", 1.25, "ms");
  metrics.Set("read_p50_ms", 2.5, "ms");
  metrics.Set("setup_s", 0.75, "s");
  EXPECT_EQ(metrics.ToJson().Render(),
            "{\"read_p50_ms\": {\"value\": 2.5, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.75, \"unit\": \"s\"}}");
}

Span MakeSpan(uint64_t id, uint64_t parent, const char* name, int64_t start,
              int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(TraceTest, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0, 10ms) with overlapping children [1, 4) and [3, 6) ms and a
  // grandchild [2, 3) ms inside the first child.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "bench.read", 0, 10'000'000),
      MakeSpan(2, 1, "server.wait", 1'000'000, 4'000'000),
      MakeSpan(3, 1, "engine.decode", 3'000'000, 6'000'000),
      MakeSpan(4, 2, "join.execute", 2'000'000, 3'000'000),
  };
  const auto self = SelfTimeMillis(spans);
  EXPECT_DOUBLE_EQ(self.at("bench"), 5.0);   // 10 - |[1,6)|
  EXPECT_DOUBLE_EQ(self.at("server"), 2.0);  // 3 - 1
  EXPECT_DOUBLE_EQ(self.at("engine"), 3.0);
  EXPECT_DOUBLE_EQ(self.at("join"), 1.0);
}

TEST(TraceTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  EXPECT_EQ(tracer.Begin("server.submit"), 0u);
  tracer.End(0);
  EXPECT_TRUE(tracer.Closed().empty());
}

TEST(TraceTest, ScopedSpansNestAndCount) {
  Tracer tracer(true);
  const uint64_t request = tracer.NewRequest();
  {
    ScopedSpan root(tracer, "bench.read", 0, request);
    ScopedSpan child(tracer, "engine.decode", root.id(), request);
    child.set_count(42);
  }
  const std::vector<Span> spans = tracer.Closed();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, request);
  EXPECT_EQ(spans[1].count, 42u);
  EXPECT_EQ(spans[1].layer(), "engine");
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at("engine.decode").spans, 1u);
}

}  // namespace
}  // namespace perfbench
