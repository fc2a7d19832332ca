#include "obs/benchdiff.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <optional>
#include <stdexcept>

#include "netbase/json.hpp"

namespace zombiescope::obs {

using netbase::json_escape;
using netbase::JsonValue;

// --- snapshot loading -----------------------------------------------

namespace {

std::string member_string(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->str : "unknown";
}

/// Derives a bench name from a path like ".../BENCH_micro_hotpaths.json".
std::string bench_name_from_path(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  if (base.rfind("BENCH_", 0) == 0) base = base.substr(6);
  const std::size_t dot = base.rfind(".json");
  if (dot != std::string::npos) base = base.substr(0, dot);
  return base.empty() ? "unknown" : base;
}

/// metrics[name] = obj[key] when that member is a number.
void copy_number(const JsonValue& obj, std::string_view key, const std::string& name,
                 std::map<std::string, double>& metrics) {
  if (const JsonValue* v = obj.find(key); v != nullptr && v->is_number())
    metrics[name] = v->number;
}

void flatten_numbers(const JsonValue& obj, const std::string& prefix,
                     std::map<std::string, double>& out) {
  for (const auto& [key, v] : obj.object) {
    if (v.is_number()) out[prefix + key] = v.number;
  }
}

}  // namespace

BenchSnapshot parse_bench_snapshot(std::string_view json, const std::string& label) {
  const std::optional<JsonValue> root = netbase::parse_json(json);
  if (!root || !root->is_object())
    throw std::runtime_error(label + ": not a JSON object");
  const JsonValue* schema = root->find("schema");
  if (schema == nullptr || !schema->is_string() || schema->str != "zsobs-v1")
    throw std::runtime_error(label + ": not a zsobs-v1 snapshot");

  BenchSnapshot snap;
  snap.path = label;

  if (const JsonValue* bench = root->find("bench");
      bench != nullptr && bench->is_string()) {
    snap.bench_name = bench->str;
  } else {
    snap.bench_name = bench_name_from_path(label);
  }

  if (const JsonValue* build = root->find("build_info");
      build != nullptr && build->is_object()) {
    snap.build.git_sha = member_string(*build, "git_sha");
    snap.build.compiler = member_string(*build, "compiler");
    snap.build.build_type = member_string(*build, "build_type");
    snap.build.sanitizer = member_string(*build, "sanitizer");
    snap.build.arch = member_string(*build, "arch");
  } else {
    snap.build = BuildInfo{"unknown", "unknown", "unknown", "unknown", "unknown"};
  }

  copy_number(*root, "wall_time_s", "wall_time_s", snap.metrics);
  copy_number(*root, "peak_rss_bytes", "peak_rss_bytes", snap.metrics);

  // find() on a non-object returns nullptr and a non-object has no
  // members, so the lookups below need no kind checks.
  if (const JsonValue* counters = root->find("counters"))
    flatten_numbers(*counters, "counter:", snap.metrics);
  if (const JsonValue* gauges = root->find("gauges"))
    flatten_numbers(*gauges, "gauge:", snap.metrics);
  if (const JsonValue* hists = root->find("histograms")) {
    for (const auto& [name, h] : hists->object) {
      copy_number(h, "sum", "hist_sum:" + name, snap.metrics);
      copy_number(h, "count", "hist_count:" + name, snap.metrics);
    }
  }
  if (const JsonValue* profile = root->find("profile")) {
    if (const JsonValue* phases = profile->find("phases")) {
      for (const auto& [name, p] : phases->object)
        copy_number(p, "share", "phase_share:" + name, snap.metrics);
    }
  }
  if (const JsonValue* latency = root->find("latency")) {
    // The zslat section: each histogram's summary members become
    // latency:<name>:<member> metrics (latency:live.e2e:p99_ns, ...).
    // Only the p99s gate (under --gate-latency); the rest ride along
    // as context for the report.
    for (const auto& [name, h] : latency->object) {
      for (const char* member : {"p50_ns", "p95_ns", "p99_ns", "mean_ns", "count"})
        copy_number(h, member, "latency:" + name + ":" + member, snap.metrics);
    }
  }
  if (const JsonValue* heap = root->find("heap")) {
    // Top-level numbers of the zsheap-v1 section (total_bytes, allocs,
    // frees, peak_live_bytes, ...) become heap:* metrics; the per-span
    // attribution becomes heap_span_bytes:<name> so a diff can say
    // which phase grew.
    flatten_numbers(*heap, "heap:", snap.metrics);
    if (const JsonValue* spans = heap->find("spans")) {
      for (const auto& [name, s] : spans->object)
        copy_number(s, "bytes", "heap_span_bytes:" + name, snap.metrics);
    }
  }
  return snap;
}

BenchSnapshot load_bench_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_bench_snapshot(buf.str(), path);
}

// --- statistics -----------------------------------------------------

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::vector<double> iqr_reject(std::vector<double> values) {
  if (values.size() < 4) return values;
  std::sort(values.begin(), values.end());
  const double q1 = sorted_quantile(values, 0.25);
  const double q3 = sorted_quantile(values, 0.75);
  const double iqr = q3 - q1;
  const double lo = q1 - 1.5 * iqr;
  const double hi = q3 + 1.5 * iqr;
  std::vector<double> kept;
  kept.reserve(values.size());
  for (double v : values)
    if (v >= lo && v <= hi) kept.push_back(v);
  // Fences at least keep the quartile range itself, so kept is never
  // empty; guard anyway for float oddities (NaN compares false).
  return kept.empty() ? values : kept;
}

namespace {

struct GroupStats {
  double representative = 0.0;  // min of inliers
  double spread_pct = 0.0;      // IQR relative to the representative
  bool ok = false;
};

GroupStats group_stats(std::vector<double> values) {
  GroupStats s;
  if (values.empty()) return s;
  std::vector<double> kept = iqr_reject(std::move(values));
  std::sort(kept.begin(), kept.end());
  s.representative = kept.front();
  if (kept.size() >= 2) {
    const double iqr =
        sorted_quantile(kept, 0.75) - sorted_quantile(kept, 0.25);
    const double denom = std::abs(s.representative);
    s.spread_pct = denom > 0.0 ? iqr / denom * 100.0 : 0.0;
  }
  s.ok = true;
  return s;
}

/// Time/RSS-class metrics participate in the gate; counts are
/// informational (their drift means behavior changed, not perf).
bool gated_metric(std::string_view name, const DiffConfig& config) {
  if (name == "wall_time_s" || name == "peak_rss_bytes") return true;
  if (name.rfind("hist_sum:", 0) == 0 &&
      (name.ends_with("_seconds") || name.ends_with("_ns")))
    return true;
  if (config.gate_counters &&
      (name.rfind("counter:", 0) == 0 || name.rfind("gauge:", 0) == 0))
    return true;
  // Allocation gating (--gate-alloc): the speed program's "fewer
  // allocations, no time regression" proof. Only the two exhaustive
  // totals gate; the rest of heap:* stays informational.
  if (config.gate_alloc &&
      (name == "heap:total_bytes" || name == "heap:allocs"))
    return true;
  // Delivery-latency gating (--gate-latency): every zslat histogram's
  // p99 gates — a stage or end-to-end p99 regression beyond the
  // threshold fails CI like a wall-time regression. p50/mean/count
  // stay informational (count drift means load changed, not latency).
  // Sub-microsecond p99s are demoted at the call site, where the
  // values are known.
  if (config.gate_latency && name.rfind("latency:", 0) == 0 &&
      name.ends_with(":p99_ns"))
    return true;
  return false;
}

// A latency p99 with both sides under this never gates: tens-of-ns
// stage timings (e.g. live.ingest_enqueue) move double-digit percents
// with clock granularity and core migration alone, and no consumer of
// the pipeline can feel a 100 ns shift. A p99 that *crosses* the floor
// still gates — that is a real order-of-magnitude change.
constexpr double kLatencyGateFloorNs = 1000.0;

std::string format_value(double v) {
  char buf[64];
  if (v == 0.0) return "0";
  const double mag = std::abs(v);
  if (mag >= 1e6 || mag < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  } else if (v == std::floor(v) && mag < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4f", v);
  }
  return buf;
}

std::string format_pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", v);
  return buf;
}

std::string describe_incompatibility(const BuildInfo& a, const BuildInfo& b) {
  std::string why;
  auto add = [&why](std::string_view field, const std::string& x,
                    const std::string& y) {
    if (x == y) return;
    if (!why.empty()) why += "; ";
    why += std::string(field) + " '" + x + "' vs '" + y + "'";
  };
  add("compiler", a.compiler, b.compiler);
  add("build_type", a.build_type, b.build_type);
  add("sanitizer", a.sanitizer, b.sanitizer);
  add("arch", a.arch, b.arch);
  return why;
}

BenchDiff diff_one_bench(const std::string& name,
                         const std::vector<const BenchSnapshot*>& base,
                         const std::vector<const BenchSnapshot*>& cand,
                         const DiffConfig& config) {
  BenchDiff diff;
  diff.bench_name = name;
  diff.baseline_runs = base.size();
  diff.candidate_runs = cand.size();

  if (base.empty() || cand.empty()) {
    diff.incompatible = base.empty() ? "bench only present in candidate set"
                                     : "bench only present in baseline set";
    return diff;
  }

  // Build-identity check: every run on each side against the other
  // side's first run (within-side mismatches get caught too since
  // comparability is transitive over these fields).
  const BenchSnapshot* anchor = base.front();
  for (const std::vector<const BenchSnapshot*>* group : {&base, &cand}) {
    for (const BenchSnapshot* s : *group) {
      if (builds_comparable(anchor->build, s->build)) continue;
      diff.incompatible = "incompatible builds: " +
                          describe_incompatibility(anchor->build, s->build) +
                          " (" + anchor->path + " vs " + s->path + ")";
      if (!config.force) {
        diff.gate_tripped = true;
        return diff;
      }
    }
  }

  // Union of metric names present on both sides (a metric absent from
  // either side cannot be compared).
  for (const auto& [metric, unused] : base.front()->metrics) {
    (void)unused;
    std::vector<double> base_vals;
    std::vector<double> cand_vals;
    for (const BenchSnapshot* s : base) {
      const auto it = s->metrics.find(metric);
      if (it != s->metrics.end()) base_vals.push_back(it->second);
    }
    for (const BenchSnapshot* s : cand) {
      const auto it = s->metrics.find(metric);
      if (it != s->metrics.end()) cand_vals.push_back(it->second);
    }
    if (base_vals.empty() || cand_vals.empty()) continue;

    const GroupStats bs = group_stats(std::move(base_vals));
    const GroupStats cs = group_stats(std::move(cand_vals));

    MetricDelta d;
    d.name = metric;
    d.base = bs.representative;
    d.cand = cs.representative;
    d.spread_pct = std::max(bs.spread_pct, cs.spread_pct);
    if (d.base == 0.0 && d.cand == 0.0) {
      d.delta_pct = 0.0;
    } else if (d.base == 0.0) {
      d.delta_pct = std::numeric_limits<double>::infinity();
    } else {
      d.delta_pct = (d.cand - d.base) / std::abs(d.base) * 100.0;
    }
    d.gated = gated_metric(metric, config);
    if (d.gated && metric.rfind("latency:", 0) == 0 &&
        d.base < kLatencyGateFloorNs && d.cand < kLatencyGateFloorNs)
      d.gated = false;
    // Significant: past the noise floor AND past the runs' own spread.
    d.significant = std::abs(d.delta_pct) > config.noise_pct &&
                    std::abs(d.delta_pct) > d.spread_pct;
    d.regression =
        d.gated && d.significant && d.delta_pct > config.threshold_pct;
    if (d.regression) diff.gate_tripped = true;
    diff.deltas.push_back(std::move(d));
  }

  std::stable_sort(diff.deltas.begin(), diff.deltas.end(),
                   [](const MetricDelta& a, const MetricDelta& b) {
                     if (a.regression != b.regression) return a.regression;
                     if (a.significant != b.significant) return a.significant;
                     return std::abs(a.delta_pct) > std::abs(b.delta_pct);
                   });
  return diff;
}

}  // namespace

DiffResult diff_benches(const std::vector<BenchSnapshot>& baseline,
                        const std::vector<BenchSnapshot>& candidate,
                        const DiffConfig& config) {
  std::map<std::string, std::pair<std::vector<const BenchSnapshot*>,
                                  std::vector<const BenchSnapshot*>>>
      by_name;
  for (const BenchSnapshot& s : baseline) by_name[s.bench_name].first.push_back(&s);
  for (const BenchSnapshot& s : candidate) by_name[s.bench_name].second.push_back(&s);

  DiffResult result;
  for (const auto& [name, groups] : by_name) {
    BenchDiff diff = diff_one_bench(name, groups.first, groups.second, config);
    if (diff.gate_tripped) result.gate_tripped = true;
    result.benches.push_back(std::move(diff));
  }
  return result;
}

std::string render_table(const DiffResult& result, const DiffConfig& config) {
  std::string out;
  for (const BenchDiff& bench : result.benches) {
    out += "bench " + bench.bench_name + " (" +
           std::to_string(bench.baseline_runs) + " baseline run" +
           (bench.baseline_runs == 1 ? "" : "s") + " vs " +
           std::to_string(bench.candidate_runs) + " candidate run" +
           (bench.candidate_runs == 1 ? "" : "s") + ")\n";
    if (!bench.incompatible.empty()) {
      if (bench.deltas.empty()) {  // refused (or one-sided): nothing compared
        out += "  SKIPPED: " + bench.incompatible + "\n\n";
        continue;
      }
      out += "  WARNING (forced): " + bench.incompatible + "\n";
    }

    std::vector<std::array<std::string, 5>> rows;
    std::size_t significant = 0;
    for (const MetricDelta& d : bench.deltas) {
      if (!d.significant) continue;
      ++significant;
      rows.push_back({d.name, format_value(d.base), format_value(d.cand),
                      format_pct(d.delta_pct),
                      d.regression    ? "REGRESSION"
                      : !d.gated      ? "info"
                      : d.delta_pct < 0.0 ? "improved"
                                          : "ok"});
    }
    if (rows.empty()) {
      out += "  no significant deltas (noise floor " +
             format_value(config.noise_pct) + "%, " +
             std::to_string(bench.deltas.size()) + " metrics compared)\n\n";
      continue;
    }
    std::array<std::size_t, 5> widths = {6, 8, 9, 5, 6};
    const std::array<std::string, 5> header = {"metric", "baseline", "candidate",
                                               "delta", "status"};
    for (std::size_t i = 0; i < widths.size(); ++i)
      widths[i] = std::max(widths[i], header[i].size());
    for (const auto& row : rows)
      for (std::size_t i = 0; i < widths.size(); ++i)
        widths[i] = std::max(widths[i], row[i].size());
    auto emit_row = [&out, &widths](const std::array<std::string, 5>& row) {
      out += "  ";
      for (std::size_t i = 0; i < row.size(); ++i) {
        out += row[i];
        if (i + 1 < row.size())
          out += std::string(widths[i] - row[i].size() + 2, ' ');
      }
      out += '\n';
    };
    emit_row(header);
    for (const auto& row : rows) emit_row(row);
    out += "  (" + std::to_string(significant) + " significant of " +
           std::to_string(bench.deltas.size()) + " compared; gate threshold " +
           format_value(config.threshold_pct) + "%)\n\n";
  }
  out += result.gate_tripped ? "GATE: REGRESSION DETECTED\n" : "GATE: ok\n";
  return out;
}

std::string render_json(const DiffResult& result) {
  std::string out = "{\n  \"schema\": \"zsbenchdiff-v1\",\n";
  out += "  \"gate_tripped\": ";
  out += result.gate_tripped ? "true" : "false";
  out += ",\n  \"benches\": [";
  for (std::size_t i = 0; i < result.benches.size(); ++i) {
    const BenchDiff& bench = result.benches[i];
    if (i != 0) out += ',';
    out += "\n    {\"bench\": \"" + json_escape(bench.bench_name) + "\"";
    out += ", \"baseline_runs\": " + std::to_string(bench.baseline_runs);
    out += ", \"candidate_runs\": " + std::to_string(bench.candidate_runs);
    out += ", \"gate_tripped\": ";
    out += bench.gate_tripped ? "true" : "false";
    if (!bench.incompatible.empty())
      out += ", \"skipped\": \"" + json_escape(bench.incompatible) + "\"";
    out += ", \"deltas\": [";
    bool first = true;
    for (const MetricDelta& d : bench.deltas) {
      if (!d.significant) continue;
      if (!first) out += ',';
      first = false;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "\n      {\"metric\": \"%s\", \"base\": %.17g, "
                    "\"cand\": %.17g, \"delta_pct\": %.4f, "
                    "\"gated\": %s, \"regression\": %s}",
                    json_escape(d.name).c_str(), d.base, d.cand,
                    std::isfinite(d.delta_pct) ? d.delta_pct : 9999.0,
                    d.gated ? "true" : "false",
                    d.regression ? "true" : "false");
      out += buf;
    }
    out += first ? "]" : "\n    ]";
    out += "}";
  }
  out += result.benches.empty() ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

}  // namespace zombiescope::obs
