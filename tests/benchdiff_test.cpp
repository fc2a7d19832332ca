// Tests for obs/benchdiff — snapshot loading, the robust statistics,
// and the regression gate (A/A quiet, injected 2x slowdown trips).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netbase/json.hpp"
#include "obs/benchdiff.hpp"

namespace obs = zombiescope::obs;

namespace {

/// A minimal zsobs-v1 snapshot fixture. `sanitizer` participates in
/// build-identity compatibility; wall/rss/counter are the metrics.
std::string snapshot_json(double wall, long long rss, long long counter,
                          const std::string& sanitizer = "") {
  return R"({
  "schema": "zsobs-v1",
  "build_info": {"git_sha": "abc123", "compiler": "gcc 12.2.0",
                 "build_type": "RelWithDebInfo", "sanitizer": ")" +
         sanitizer + R"(", "arch": "x86_64"},
  "bench": "fixture",
  "wall_time_s": )" + std::to_string(wall) + R"(,
  "peak_rss_bytes": )" + std::to_string(rss) + R"(,
  "counters": {"zs_events_total": )" + std::to_string(counter) + R"(},
  "gauges": {},
  "histograms": {"zs_apply_seconds": {"bounds": [0.1], "counts": [4],
                 "sum": 0.25, "count": 4}},
  "spans": []
})";
}

std::vector<obs::BenchSnapshot> runs(std::initializer_list<double> walls,
                                     const std::string& sanitizer = "") {
  std::vector<obs::BenchSnapshot> out;
  int i = 0;
  for (double w : walls) {
    out.push_back(obs::parse_bench_snapshot(
        snapshot_json(w, 1000000, 500, sanitizer),
        "run" + std::to_string(i++) + ".json"));
  }
  return out;
}

TEST(ObsBenchDiffSnapshot, FlattensMetricsWithKindPrefixes) {
  const obs::BenchSnapshot snap =
      obs::parse_bench_snapshot(snapshot_json(1.25, 4096, 99), "x.json");
  EXPECT_EQ(snap.bench_name, "fixture");
  EXPECT_EQ(snap.build.compiler, "gcc 12.2.0");
  EXPECT_DOUBLE_EQ(snap.metrics.at("wall_time_s"), 1.25);
  EXPECT_DOUBLE_EQ(snap.metrics.at("peak_rss_bytes"), 4096);
  EXPECT_DOUBLE_EQ(snap.metrics.at("counter:zs_events_total"), 99);
  EXPECT_DOUBLE_EQ(snap.metrics.at("hist_sum:zs_apply_seconds"), 0.25);
  EXPECT_DOUBLE_EQ(snap.metrics.at("hist_count:zs_apply_seconds"), 4);
}

TEST(ObsBenchDiffSnapshot, BenchNameFallsBackToFilename) {
  const std::string json = R"({"schema": "zsobs-v1", "counters": {}})";
  const obs::BenchSnapshot snap =
      obs::parse_bench_snapshot(json, "dir/BENCH_micro_hotpaths.json");
  EXPECT_EQ(snap.bench_name, "micro_hotpaths");
}

TEST(ObsBenchDiffSnapshot, RejectsForeignSchema) {
  EXPECT_THROW(obs::parse_bench_snapshot(R"({"schema": "other"})", "x"),
               std::runtime_error);
  EXPECT_THROW(obs::parse_bench_snapshot("[]", "x"), std::runtime_error);
  EXPECT_THROW(obs::parse_bench_snapshot("not json", "x"), std::runtime_error);
}

TEST(ObsBenchDiffStats, QuantileInterpolates) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(obs::sorted_quantile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::sorted_quantile(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(obs::sorted_quantile(sorted, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(obs::sorted_quantile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(obs::sorted_quantile({}, 0.5), 0.0);
}

TEST(ObsBenchDiffStats, IqrRejectsWildOutlier) {
  const auto kept = obs::iqr_reject({1.0, 1.01, 0.99, 1.02, 50.0});
  EXPECT_EQ(kept.size(), 4u);
  for (double v : kept) EXPECT_LT(v, 2.0);
}

TEST(ObsBenchDiffStats, SmallGroupsAreKeptVerbatim) {
  const auto kept = obs::iqr_reject({1.0, 100.0, 3.0});
  EXPECT_EQ(kept.size(), 3u);
}

TEST(ObsBenchDiff, AAComparisonStaysQuiet) {
  // Same workload twice with realistic run-to-run jitter: no metric
  // should be significant, the gate must not trip.
  const auto base = runs({1.000, 1.012, 0.995});
  const auto cand = runs({1.003, 0.998, 1.010});
  const obs::DiffResult result = obs::diff_benches(base, cand);
  EXPECT_FALSE(result.gate_tripped);
  ASSERT_EQ(result.benches.size(), 1u);
  for (const auto& delta : result.benches[0].deltas)
    EXPECT_FALSE(delta.regression) << delta.name;
}

TEST(ObsBenchDiff, InjectedSlowdownTripsGate) {
  const auto base = runs({1.000, 1.012, 0.995});
  const auto cand = runs({2.000, 2.024, 1.990});
  const obs::DiffResult result = obs::diff_benches(base, cand);
  EXPECT_TRUE(result.gate_tripped);
  ASSERT_EQ(result.benches.size(), 1u);
  bool wall_regressed = false;
  for (const auto& delta : result.benches[0].deltas)
    if (delta.name == "wall_time_s") {
      wall_regressed = delta.regression;
      EXPECT_NEAR(delta.delta_pct, 100.0, 5.0);
    }
  EXPECT_TRUE(wall_regressed);
  const std::string table =
      obs::render_table(result, obs::DiffConfig{});
  EXPECT_NE(table.find("REGRESSION"), std::string::npos);
}

TEST(ObsBenchDiff, ImprovementDoesNotTrip) {
  const auto base = runs({2.0, 2.02, 1.99});
  const auto cand = runs({1.0, 1.01, 0.99});
  const obs::DiffResult result = obs::diff_benches(base, cand);
  EXPECT_FALSE(result.gate_tripped);
}

TEST(ObsBenchDiff, OutlierRunDoesNotTripGate) {
  // One baseline run hit a cold cache (4x): IQR rejection plus
  // min-of-N keeps the comparison honest.
  const auto base = runs({1.00, 1.01, 0.99, 1.02});
  const auto cand = runs({1.00, 1.01, 4.00, 0.99});
  const obs::DiffResult result = obs::diff_benches(base, cand);
  EXPECT_FALSE(result.gate_tripped);
}

TEST(ObsBenchDiff, CounterDriftIsInformationalByDefault) {
  auto base = runs({1.0});
  auto cand = runs({1.0});
  base[0].metrics["counter:zs_events_total"] = 500;
  cand[0].metrics["counter:zs_events_total"] = 5000;  // 10x drift
  obs::DiffConfig config;
  obs::DiffResult result = obs::diff_benches(base, cand, config);
  EXPECT_FALSE(result.gate_tripped);
  bool seen = false;
  for (const auto& delta : result.benches[0].deltas)
    if (delta.name == "counter:zs_events_total") {
      seen = true;
      EXPECT_TRUE(delta.significant);
      EXPECT_FALSE(delta.gated);
    }
  EXPECT_TRUE(seen);

  config.gate_counters = true;
  result = obs::diff_benches(base, cand, config);
  EXPECT_TRUE(result.gate_tripped);
}

TEST(ObsBenchDiffSnapshot, FlattensHeapSectionAsHeapMetrics) {
  std::string json = snapshot_json(1.0, 1000000, 500);
  json.insert(json.rfind('}'),
              R"(, "heap": {"schema": "zsheap-v1", "valid": true,
  "total_bytes": 123456, "allocs": 789, "frees": 700,
  "peak_live_bytes": 4096,
  "size_class_allocs": {"16": 10},
  "spans": {"decode": {"bytes": 100000, "allocs": 600}},
  "top_sites": []})");
  const obs::BenchSnapshot snap = obs::parse_bench_snapshot(json, "x.json");
  EXPECT_DOUBLE_EQ(snap.metrics.at("heap:total_bytes"), 123456);
  EXPECT_DOUBLE_EQ(snap.metrics.at("heap:allocs"), 789);
  EXPECT_DOUBLE_EQ(snap.metrics.at("heap:peak_live_bytes"), 4096);
  EXPECT_DOUBLE_EQ(snap.metrics.at("heap_span_bytes:decode"), 100000);
  // Nested objects stay out of the flat heap:* namespace.
  EXPECT_EQ(snap.metrics.count("heap:16"), 0u);
}

TEST(ObsBenchDiff, AllocDriftIsInformationalWithoutGateAlloc) {
  auto base = runs({1.0});
  auto cand = runs({1.0});
  base[0].metrics["heap:total_bytes"] = 1000000;
  base[0].metrics["heap:allocs"] = 10000;
  cand[0].metrics["heap:total_bytes"] = 1200000;  // +20% allocation
  cand[0].metrics["heap:allocs"] = 12000;
  obs::DiffConfig config;
  obs::DiffResult result = obs::diff_benches(base, cand, config);
  EXPECT_FALSE(result.gate_tripped);
  bool seen = false;
  for (const auto& delta : result.benches[0].deltas)
    if (delta.name == "heap:total_bytes") {
      seen = true;
      EXPECT_TRUE(delta.significant);
      EXPECT_FALSE(delta.gated);
    }
  EXPECT_TRUE(seen);

  // --gate-alloc turns the same +20% drift into a tripped gate.
  config.gate_alloc = true;
  result = obs::diff_benches(base, cand, config);
  EXPECT_TRUE(result.gate_tripped);
}

TEST(ObsBenchDiff, GateAllocAcceptsSelfComparison) {
  auto base = runs({1.0});
  auto cand = runs({1.0});
  for (auto* group : {&base, &cand}) {
    (*group)[0].metrics["heap:total_bytes"] = 1000000;
    (*group)[0].metrics["heap:allocs"] = 10000;
  }
  obs::DiffConfig config;
  config.gate_alloc = true;
  const obs::DiffResult result = obs::diff_benches(base, cand, config);
  EXPECT_FALSE(result.gate_tripped);
}

TEST(ObsBenchDiff, GateAllocIgnoresOtherHeapMetrics) {
  auto base = runs({1.0});
  auto cand = runs({1.0});
  base[0].metrics["heap:peak_live_bytes"] = 1000;
  cand[0].metrics["heap:peak_live_bytes"] = 10000;  // 10x, ungated
  base[0].metrics["heap_span_bytes:decode"] = 1000;
  cand[0].metrics["heap_span_bytes:decode"] = 10000;
  obs::DiffConfig config;
  config.gate_alloc = true;
  const obs::DiffResult result = obs::diff_benches(base, cand, config);
  EXPECT_FALSE(result.gate_tripped);
}

TEST(ObsBenchDiffSnapshot, FlattensLatencySectionAsLatencyMetrics) {
  std::string json = snapshot_json(1.0, 1000000, 500);
  json.insert(json.rfind('}'),
              R"(, "latency": {"live.e2e": {"count": 3200, "sum_ns": 64000000,
  "min_ns": 900, "max_ns": 120000, "mean_ns": 20000.0,
  "p50_ns": 15000.0, "p95_ns": 80000.0, "p99_ns": 110000.0},
  "live.queue_wait": {"count": 471355, "sum_ns": 9000000,
  "min_ns": 100, "max_ns": 50000, "mean_ns": 19.1,
  "p50_ns": 12.0, "p95_ns": 95.0, "p99_ns": 400.0}})");
  const obs::BenchSnapshot snap = obs::parse_bench_snapshot(json, "x.json");
  EXPECT_DOUBLE_EQ(snap.metrics.at("latency:live.e2e:p50_ns"), 15000.0);
  EXPECT_DOUBLE_EQ(snap.metrics.at("latency:live.e2e:p99_ns"), 110000.0);
  EXPECT_DOUBLE_EQ(snap.metrics.at("latency:live.e2e:mean_ns"), 20000.0);
  EXPECT_DOUBLE_EQ(snap.metrics.at("latency:live.e2e:count"), 3200);
  EXPECT_DOUBLE_EQ(snap.metrics.at("latency:live.queue_wait:p99_ns"), 400.0);
  // min/max/sum are not comparable scalars; they stay out of the
  // flattened namespace.
  EXPECT_EQ(snap.metrics.count("latency:live.e2e:min_ns"), 0u);
  EXPECT_EQ(snap.metrics.count("latency:live.e2e:sum_ns"), 0u);
}

TEST(ObsBenchDiff, LatencyDriftIsInformationalWithoutGateLatency) {
  auto base = runs({1.0});
  auto cand = runs({1.0});
  base[0].metrics["latency:live.e2e:p99_ns"] = 100000.0;
  cand[0].metrics["latency:live.e2e:p99_ns"] = 120000.0;  // +20% delivery p99
  obs::DiffConfig config;
  obs::DiffResult result = obs::diff_benches(base, cand, config);
  EXPECT_FALSE(result.gate_tripped);
  bool seen = false;
  for (const auto& delta : result.benches[0].deltas)
    if (delta.name == "latency:live.e2e:p99_ns") {
      seen = true;
      EXPECT_TRUE(delta.significant);
      EXPECT_FALSE(delta.gated);
    }
  EXPECT_TRUE(seen);

  // --gate-latency turns the same +20% regression into a tripped gate.
  config.gate_latency = true;
  result = obs::diff_benches(base, cand, config);
  EXPECT_TRUE(result.gate_tripped);
}

TEST(ObsBenchDiff, GateLatencyAcceptsSelfComparison) {
  auto base = runs({1.0});
  auto cand = runs({1.0});
  for (auto* group : {&base, &cand}) {
    (*group)[0].metrics["latency:live.e2e:p99_ns"] = 100000.0;
    (*group)[0].metrics["latency:live.e2e:p50_ns"] = 15000.0;
  }
  obs::DiffConfig config;
  config.gate_latency = true;
  const obs::DiffResult result = obs::diff_benches(base, cand, config);
  EXPECT_FALSE(result.gate_tripped);
}

TEST(ObsBenchDiff, GateLatencyGatesOnlyP99) {
  // p50/mean/count wobble is informational even under --gate-latency:
  // the gate contract is the tail.
  auto base = runs({1.0});
  auto cand = runs({1.0});
  base[0].metrics["latency:live.e2e:p50_ns"] = 10000.0;
  cand[0].metrics["latency:live.e2e:p50_ns"] = 20000.0;  // 2x, ungated
  base[0].metrics["latency:live.e2e:count"] = 1000.0;
  cand[0].metrics["latency:live.e2e:count"] = 2000.0;
  obs::DiffConfig config;
  config.gate_latency = true;
  const obs::DiffResult result = obs::diff_benches(base, cand, config);
  EXPECT_FALSE(result.gate_tripped);
}

TEST(ObsBenchDiff, GateLatencyIgnoresSubMicrosecondStages) {
  // A 97 ns -> 160 ns stage p99 is clock granularity, not a delivery
  // regression; both sides under the 1 us floor never gate. Crossing
  // the floor (0.5 us -> 5 us) is an order-of-magnitude change and
  // still does.
  auto base = runs({1.0});
  auto cand = runs({1.0});
  base[0].metrics["latency:live.ingest_enqueue:p99_ns"] = 97.0;
  cand[0].metrics["latency:live.ingest_enqueue:p99_ns"] = 160.0;
  obs::DiffConfig config;
  config.gate_latency = true;
  EXPECT_FALSE(obs::diff_benches(base, cand, config).gate_tripped);

  base[0].metrics["latency:live.queue_wait:p99_ns"] = 500.0;
  cand[0].metrics["latency:live.queue_wait:p99_ns"] = 5000.0;
  EXPECT_TRUE(obs::diff_benches(base, cand, config).gate_tripped);
}

TEST(ObsBenchDiff, HistogramSecondsParticipateInGate) {
  auto base = runs({1.0});
  auto cand = runs({1.0});
  base[0].metrics["hist_sum:zs_apply_seconds"] = 0.25;
  cand[0].metrics["hist_sum:zs_apply_seconds"] = 0.60;
  const obs::DiffResult result = obs::diff_benches(base, cand);
  EXPECT_TRUE(result.gate_tripped);
}

TEST(ObsBenchDiff, IncompatibleBuildsRefuseToCompare) {
  const auto base = runs({1.0}, "");
  const auto cand = runs({1.0}, "address");
  const obs::DiffResult result = obs::diff_benches(base, cand);
  EXPECT_TRUE(result.gate_tripped);
  ASSERT_EQ(result.benches.size(), 1u);
  EXPECT_NE(result.benches[0].incompatible.find("sanitizer"), std::string::npos);
  EXPECT_TRUE(result.benches[0].deltas.empty());

  obs::DiffConfig config;
  config.force = true;
  const obs::DiffResult forced = obs::diff_benches(base, cand, config);
  EXPECT_FALSE(forced.gate_tripped);
  EXPECT_FALSE(forced.benches[0].deltas.empty());
}

TEST(ObsBenchDiff, MismatchedBenchNamesAreSkippedNotCompared) {
  auto base = runs({1.0});
  auto cand = runs({1.0});
  cand[0].bench_name = "other_bench";
  const obs::DiffResult result = obs::diff_benches(base, cand);
  ASSERT_EQ(result.benches.size(), 2u);
  for (const auto& bench : result.benches) {
    EXPECT_FALSE(bench.incompatible.empty());
    EXPECT_FALSE(bench.gate_tripped);  // absence is not a regression
  }
}

TEST(ObsBenchDiff, RenderJsonIsWellFormed) {
  const auto base = runs({1.0, 1.01, 0.99});
  const auto cand = runs({2.0, 2.02, 1.98});
  const obs::DiffResult result = obs::diff_benches(base, cand);
  const std::string json = obs::render_json(result);
  EXPECT_NE(json.find("\"schema\": \"zsbenchdiff-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"gate_tripped\": true"), std::string::npos);
  // The output must itself parse with the library's own reader.
  const auto parsed = zombiescope::netbase::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->find("gate_tripped")->boolean);
}

}  // namespace
