// obs/benchdiff.hpp — the statistical benchmark regression gate.
//
// Loads zsobs-v1 BENCH_*.json snapshots (the files every bench binary
// and run_bench.sh leave behind) and compares a baseline group of runs
// against a candidate group. The statistics are deliberately simple
// and robust for small N:
//
//  * per metric, each group's runs are IQR-outlier-rejected (Tukey
//    fences, k = 1.5) — a cron job or page cache blip does not poison
//    the comparison;
//  * the representative value is the *minimum* of the surviving runs
//    (for time/RSS the minimum is the least-noise estimate of the
//    workload's true cost);
//  * a delta is significant when it exceeds both the configured noise
//    floor and the within-group spread (relative IQR of either group),
//    so one noisy metric cannot trip the gate;
//  * the gate trips only on *gated* metrics (wall time, peak RSS,
//    *_seconds histogram totals) regressing past the threshold.
//    Counter/gauge drift is reported as informational — across commits
//    it usually means behavior changed, not performance.
//
// Snapshots stamped with incompatible build identities (different
// compiler, build type, sanitizer, or arch — see obs/build_info.hpp)
// refuse to compare unless forced.
//
// tools/zsbenchdiff is the CLI; scripts/check_bench_regression.sh
// wires it into CI as an A/B gate.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/build_info.hpp"

namespace zombiescope::obs {

// --- snapshot model -------------------------------------------------

/// One BENCH_*.json flattened to comparable scalars. Metric names are
/// prefixed by kind: "counter:zs_...", "gauge:zs_...",
/// "hist_sum:zs_...", "hist_count:zs_...", "phase_share:...", plus the
/// bare "wall_time_s" and "peak_rss_bytes".
struct BenchSnapshot {
  std::string path;        // where it was loaded from (diagnostics)
  std::string bench_name;  // "bench" key, else derived from filename
  BuildInfo build;
  std::map<std::string, double> metrics;
};

/// Parses one snapshot; throws std::runtime_error on malformed JSON.
BenchSnapshot parse_bench_snapshot(std::string_view json, const std::string& label);
/// Reads + parses; throws std::runtime_error on I/O or parse failure.
BenchSnapshot load_bench_snapshot(const std::string& path);

// --- comparison -----------------------------------------------------

struct DiffConfig {
  double threshold_pct = 5.0;  // gate: regression beyond this trips
  double noise_pct = 1.0;      // ignore deltas below this floor
  bool gate_counters = false;  // also gate on counter/gauge drift
  bool gate_alloc = false;     // also gate heap:total_bytes/heap:allocs
  bool gate_latency = false;   // also gate latency:*:p99_ns (delivery p99)
  bool force = false;          // compare despite incompatible builds
};

struct MetricDelta {
  std::string name;
  double base = 0.0;  // min-of-N after outlier rejection
  double cand = 0.0;
  double delta_pct = 0.0;   // (cand - base) / |base| * 100
  double spread_pct = 0.0;  // max relative IQR of the two groups
  bool significant = false;
  bool gated = false;       // metric class participates in the gate
  bool regression = false;  // significant, gated, past the threshold
};

struct BenchDiff {
  std::string bench_name;
  std::size_t baseline_runs = 0;
  std::size_t candidate_runs = 0;
  std::string incompatible;  // non-empty: why the groups refuse to compare
  std::vector<MetricDelta> deltas;  // regressions first, then by |delta|
  bool gate_tripped = false;
};

struct DiffResult {
  std::vector<BenchDiff> benches;
  bool gate_tripped = false;  // any bench tripped (or was incompatible)
};

/// Compares two groups of runs (any mix of bench names; grouped by
/// bench_name internally, names present on only one side are skipped
/// with a note in the per-bench `incompatible` field).
DiffResult diff_benches(const std::vector<BenchSnapshot>& baseline,
                        const std::vector<BenchSnapshot>& candidate,
                        const DiffConfig& config = {});

/// Aligned text table of significant deltas (all benches).
std::string render_table(const DiffResult& result, const DiffConfig& config);
/// Machine-readable result ("zsbenchdiff-v1").
std::string render_json(const DiffResult& result);

// --- statistics helpers (exposed for tests) -------------------------

/// The q-quantile of `sorted` by linear interpolation (empty -> 0).
double sorted_quantile(const std::vector<double>& sorted, double q);
/// Tukey-fence outlier rejection (k = 1.5). Groups of fewer than 4
/// runs are returned unchanged — quartiles mean nothing there.
std::vector<double> iqr_reject(std::vector<double> values);

}  // namespace zombiescope::obs
