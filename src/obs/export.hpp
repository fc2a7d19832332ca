// obs/export.hpp — turning registry/tracer state into artifacts.
//
// Two formats:
//  * Prometheus text exposition (counters, gauges, histograms with
//    _bucket{le=...}/_sum/_count series) — scrape-ready;
//  * a JSON snapshot ("zsobs-v1") — the schema of the repo's
//    BENCH_*.json perf-trajectory files, with optional span data so
//    one file carries both counts and per-stage wall time.
//
// Exporting is strictly pull: nothing here runs unless called, which
// is what keeps the instrumented hot paths free of I/O.

#pragma once

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zombiescope::obs {

/// Escapes a Prometheus label value: `\` -> `\\`, `"` -> `\"`, and a
/// newline -> `\n` (the exposition-format escaping rules).
std::string prometheus_escape_label(std::string_view value);

/// Escapes a HELP text line: `\` -> `\\` and a newline -> `\n` (HELP
/// text keeps literal double quotes).
std::string prometheus_escape_help(std::string_view text);

/// Prometheus text exposition format. Includes the `zs_build_info`
/// gauge (value 1, build identity in labels).
std::string to_prometheus(const Snapshot& snapshot);

/// Extra top-level sections appended to the zsobs-v1 JSON object: each
/// entry is (key, raw JSON value). The bench harness uses this for
/// wall time, peak RSS, and the zsprof profile section.
using JsonSections = std::vector<std::pair<std::string, std::string>>;

/// The zsobs-v1 JSON snapshot: build info, counters, gauges,
/// histograms, optional extra sections, and (if given) completed spans
/// with their parent links.
std::string to_json(const Snapshot& snapshot, std::span<const SpanRecord> spans = {},
                    const JsonSections& extra = {});

/// Span-only JSON ("zsobs-trace-v1") for --trace-out files.
std::string trace_to_json(std::span<const SpanRecord> spans);

/// Sanity-checks Prometheus text format: every line is a comment or
/// `name[{labels}] value` with a valid metric name and numeric value,
/// and every histogram has consistent _bucket/_sum/_count series.
bool prometheus_format_ok(std::string_view text);

/// Writes `content` to `path`; throws std::runtime_error on failure.
void write_text_file(const std::string& path, std::string_view content);

/// Snapshot the global registry to a file: Prometheus text when `path`
/// ends in ".prom", otherwise zsobs-v1 JSON with the global tracer's
/// spans.
void write_metrics_file(const std::string& path);

/// Snapshot the global tracer's spans to a JSON trace file.
void write_trace_file(const std::string& path);

}  // namespace zombiescope::obs
