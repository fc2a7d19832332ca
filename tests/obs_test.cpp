// Tests for the zsobs telemetry subsystem: registry semantics,
// histogram buckets and quantiles, span nesting and ring-buffer
// overflow, exporter output, and multi-threaded counter updates.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zombiescope::obs {
namespace {

TEST(ObsCounter, IncrementAndValue) {
  Registry registry;
  Counter c = registry.counter("zs_test_events_total");
  EXPECT_TRUE(c.bound());
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsCounter, UnboundHandleIsNoOp) {
  Counter c;
  EXPECT_FALSE(c.bound());
  c.inc();  // must not crash
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, ReRegistrationSharesTheCell) {
  Registry registry;
  Counter a = registry.counter("zs_test_shared_total");
  Counter b = registry.counter("zs_test_shared_total");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
}

TEST(ObsGauge, SetAndAdd) {
  Registry registry;
  Gauge g = registry.gauge("zs_test_depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(ObsRegistry, ResetZeroesButKeepsHandles) {
  Registry registry;
  Counter c = registry.counter("zs_test_reset_total");
  Gauge g = registry.gauge("zs_test_reset_depth");
  Histogram h = registry.histogram("zs_test_reset_seconds", {1.0, 2.0});
  c.inc(9);
  g.set(9);
  h.observe(1.5);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // handle still valid
  EXPECT_EQ(c.value(), 1u);
}

TEST(ObsHistogram, BucketBoundariesAreInclusiveUpperBounds) {
  Registry registry;
  Histogram h = registry.histogram("zs_test_bytes", {1.0, 2.0, 5.0});
  // le semantics: a value equal to the bound lands in that bucket.
  h.observe(0.5);  // bucket 0 (le 1)
  h.observe(1.0);  // bucket 0 (le 1)
  h.observe(1.5);  // bucket 1 (le 2)
  h.observe(5.0);  // bucket 2 (le 5)
  h.observe(9.0);  // +Inf bucket
  const Snapshot snap = registry.snapshot();
  const HistogramSnapshot* s = snap.histogram("zs_test_bytes");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->counts.size(), 4u);
  EXPECT_EQ(s->counts[0], 2u);
  EXPECT_EQ(s->counts[1], 1u);
  EXPECT_EQ(s->counts[2], 1u);
  EXPECT_EQ(s->counts[3], 1u);
  EXPECT_EQ(s->count, 5u);
  EXPECT_DOUBLE_EQ(s->sum, 0.5 + 1.0 + 1.5 + 5.0 + 9.0);
}

TEST(ObsHistogram, QuantileInterpolatesInsideTheBucket) {
  Registry registry;
  Histogram h = registry.histogram("zs_test_latency", {1.0, 2.0, 4.0});
  // 10 observations uniformly inside (1, 2]: the bucket spans rank
  // 1..10, so the median interpolates to the middle of the bucket.
  for (int i = 0; i < 10; ++i) h.observe(1.5);
  const Snapshot snap = registry.snapshot();
  const HistogramSnapshot* s = snap.histogram("zs_test_latency");
  ASSERT_NE(s, nullptr);
  const double median = s->quantile(0.5);
  EXPECT_GT(median, 1.0);
  EXPECT_LE(median, 2.0);
  // All mass in one bucket: q=1 hits the bucket's upper bound.
  EXPECT_DOUBLE_EQ(s->quantile(1.0), 2.0);
}

TEST(ObsHistogram, RejectsNonIncreasingBounds) {
  Registry registry;
  EXPECT_THROW(registry.histogram("zs_test_bad", {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(registry.histogram("zs_test_bad2", {1.0, 1.0}), std::invalid_argument);
}

TEST(ObsSnapshot, LookupByName) {
  Registry registry;
  registry.counter("zs_test_b_total").inc(2);
  registry.counter("zs_test_a_total").inc(1);
  registry.gauge("zs_test_g").set(5);
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Sorted by name.
  EXPECT_EQ(snap.counters[0].first, "zs_test_a_total");
  const std::uint64_t* a = snap.counter("zs_test_a_total");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(snap.counter("zs_test_missing"), nullptr);
  const std::int64_t* g = snap.gauge("zs_test_g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(*g, 5);
}

TEST(ObsTrace, SpansNestViaThreadLocalStack) {
  Tracer tracer(16);
  {
    ScopedSpan outer("outer", tracer);
    { ScopedSpan inner("inner", tracer); }
    { ScopedSpan inner2("inner2", tracer); }
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Children complete before the parent, so they come first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "inner2");
  EXPECT_EQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].parent, 0u);  // root
  EXPECT_EQ(spans[0].parent, spans[2].id);
  EXPECT_EQ(spans[1].parent, spans[2].id);
  // The parent's window covers each child's.
  EXPECT_LE(spans[2].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[2].end_ns(), spans[1].end_ns());
}

TEST(ObsTrace, RingBufferOverflowKeepsNewestSpans) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) ScopedSpan span("span" + std::to_string(i), tracer);
  EXPECT_EQ(tracer.total_recorded(), 10u);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first among the surviving (newest) four.
  EXPECT_EQ(spans[0].name, "span6");
  EXPECT_EQ(spans[3].name, "span9");
}

TEST(ObsTrace, OverflowCountsDroppedSpansIntoBoundCounter) {
  Registry registry;
  Tracer tracer(4);
  tracer.set_dropped_counter(registry.counter("zs_obs_spans_dropped_total"));
  for (int i = 0; i < 10; ++i) ScopedSpan span("span" + std::to_string(i), tracer);
  EXPECT_EQ(tracer.dropped(), 6u);
  const Snapshot snap = registry.snapshot();
  const std::uint64_t* dropped = snap.counter("zs_obs_spans_dropped_total");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(*dropped, 6u);
}

TEST(ObsTrace, GlobalTracerExportsDroppedSpansMetric) {
  // The global tracer binds its drop counter at first use, so the
  // series is present in /metrics scrapes even before any overflow.
  Tracer::global();
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_NE(snap.counter("zs_obs_spans_dropped_total"), nullptr);
}

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  Tracer tracer(16);
  tracer.set_enabled(false);
  { ScopedSpan span("ignored", tracer); }
  EXPECT_EQ(tracer.total_recorded(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(ObsExport, PrometheusGoldenAndFormatCheck) {
  Registry registry;
  registry.counter("zs_test_events_total").inc(3);
  registry.gauge("zs_test_depth").set(7);
  Histogram h = registry.histogram("zs_test_seconds", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE zs_test_events_total counter\nzs_test_events_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE zs_test_depth gauge\nzs_test_depth 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE zs_test_seconds histogram\n"), std::string::npos);
  // Buckets are cumulative.
  EXPECT_NE(text.find("zs_test_seconds_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("zs_test_seconds_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("zs_test_seconds_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("zs_test_seconds_count 3\n"), std::string::npos);
  EXPECT_TRUE(prometheus_format_ok(text));
}

TEST(ObsExport, PrometheusExportsHistogramQuantiles) {
  Registry registry;
  Histogram h = registry.histogram("zs_test_seconds", {1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE zs_test_seconds_quantile gauge\n"), std::string::npos);
  EXPECT_NE(text.find("zs_test_seconds_quantile{q=\"0.5\"} "), std::string::npos);
  EXPECT_NE(text.find("zs_test_seconds_quantile{q=\"0.95\"} "), std::string::npos);
  EXPECT_NE(text.find("zs_test_seconds_quantile{q=\"0.99\"} "), std::string::npos);
  EXPECT_TRUE(prometheus_format_ok(text));
}

TEST(ObsExport, JsonExportsHistogramQuantiles) {
  Registry registry;
  Histogram h = registry.histogram("zs_test_seconds", {1.0, 2.0});
  // All mass in (1, 2]: every quantile lands inside that bucket.
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  const std::string json = to_json(registry.snapshot(), {});
  EXPECT_NE(json.find("\"p50\": "), std::string::npos);
  EXPECT_NE(json.find("\"p95\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99\": "), std::string::npos);
}

TEST(ObsExport, PrometheusFormatCheckRejectsMalformedInput) {
  EXPECT_FALSE(prometheus_format_ok("3no_leading_digit_allowed 1\n"));
  EXPECT_FALSE(prometheus_format_ok("name_without_value\n"));
  EXPECT_FALSE(prometheus_format_ok("name not_a_number\n"));
  EXPECT_FALSE(prometheus_format_ok("# TYPE zs_x banana\n"));
  // A histogram family missing its _sum series fails the check.
  EXPECT_FALSE(prometheus_format_ok(
      "# TYPE zs_h histogram\nzs_h_bucket{le=\"+Inf\"} 1\nzs_h_count 1\n"));
  EXPECT_TRUE(prometheus_format_ok(""));
}

TEST(ObsExport, JsonSnapshotSchema) {
  Registry registry;
  registry.counter("zs_test_events_total").inc(5);
  registry.histogram("zs_test_seconds", {1.0}).observe(0.5);
  Tracer tracer(8);
  { ScopedSpan span("stage", tracer); }
  const auto spans = tracer.snapshot();
  const std::string json = to_json(registry.snapshot(), spans);
  EXPECT_NE(json.find("\"schema\": \"zsobs-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"zs_test_events_total\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\": [1]"), std::string::npos);
  EXPECT_NE(json.find("\"counts\": [1, 0]"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"stage\""), std::string::npos);

  const std::string trace = trace_to_json(spans);
  EXPECT_NE(trace.find("\"schema\": \"zsobs-trace-v1\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"stage\""), std::string::npos);
}

TEST(ObsExport, PrometheusLabelEscaping) {
  // Exposition rules for label values: backslash, double quote and
  // newline must be escaped; everything else passes through.
  EXPECT_EQ(prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label("back\\slash"), "back\\\\slash");
  EXPECT_EQ(prometheus_escape_label("quo\"te"), "quo\\\"te");
  EXPECT_EQ(prometheus_escape_label("new\nline"), "new\\nline");
  EXPECT_EQ(prometheus_escape_label("all\\three\"at\nonce"),
            "all\\\\three\\\"at\\nonce");
  // Label values may legally contain } and , unescaped.
  EXPECT_EQ(prometheus_escape_label("a},b"), "a},b");
}

TEST(ObsExport, PrometheusHelpEscaping) {
  // HELP text escapes backslash and newline but keeps literal quotes.
  EXPECT_EQ(prometheus_escape_help("plain help"), "plain help");
  EXPECT_EQ(prometheus_escape_help("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape_help("two\nlines"), "two\\nlines");
  EXPECT_EQ(prometheus_escape_help("say \"hi\""), "say \"hi\"");
}

TEST(ObsExport, FormatCheckAcceptsEscapedLabelValues) {
  // A label value containing }, comma, and escaped quotes must pass
  // the validator (the quote-aware scanner, not a naive find('}')).
  EXPECT_TRUE(prometheus_format_ok(
      "zs_x{path=\"dir/file\",note=\"a}b,c\\\"d\\\\e\"} 1\n"));
  // An unterminated label string fails.
  EXPECT_FALSE(prometheus_format_ok("zs_x{note=\"unterminated} 1\n"));
}

TEST(ObsExport, BuildInfoGaugeIsExported) {
  Registry registry;
  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE zs_build_info gauge\n"), std::string::npos);
  EXPECT_NE(text.find("zs_build_info{git_sha=\""), std::string::npos);
  EXPECT_NE(text.find("compiler=\""), std::string::npos);
  EXPECT_NE(text.find("build_type=\""), std::string::npos);
  EXPECT_NE(text.find("sanitizer=\""), std::string::npos);
  EXPECT_NE(text.find("\"} 1\n"), std::string::npos);
  EXPECT_TRUE(prometheus_format_ok(text));

  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"build_info\": {"), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
}

TEST(ObsExport, JsonExtraSectionsAppearAtTopLevel) {
  Registry registry;
  const JsonSections extra = {{"bench", "\"micro\""},
                              {"wall_time_s", "1.25"},
                              {"peak_rss_bytes", "4096"}};
  const std::string json = to_json(registry.snapshot(), {}, extra);
  EXPECT_NE(json.find("\"bench\": \"micro\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_time_s\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\": 4096"), std::string::npos);
}

TEST(ObsExport, MetricsFileFormatFollowsPath) {
  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string prom = ::testing::TempDir() + "obs_export_format.prom";
  const std::string json = ::testing::TempDir() + "obs_export_format.json";
  const std::string other = ::testing::TempDir() + "obs_export_format.prom.txt";
  write_metrics_file(prom);
  write_metrics_file(json);
  write_metrics_file(other);
  EXPECT_TRUE(prometheus_format_ok(read(prom)));
  EXPECT_NE(read(prom).find("# HELP zs_build_info"), std::string::npos);
  EXPECT_NE(read(json).find("\"schema\": \"zsobs-v1\""), std::string::npos);
  EXPECT_NE(read(other).find("\"schema\": \"zsobs-v1\""), std::string::npos);
  for (const std::string& path : {prom, json, other}) std::remove(path.c_str());
}

TEST(ObsConcurrency, CountersAreThreadSafe) {
  Registry registry;
  Counter c = registry.counter("zs_test_mt_total");
  Histogram h = registry.histogram("zs_test_mt_seconds", duration_buckets());
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(0.01);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace zombiescope::obs
