// bench/bench_common.hpp — shared infrastructure for the experiment
// harness.
//
// Every bench binary regenerates one table or figure of the paper.
// The underlying scenario runs are deterministic but take tens of
// seconds, so their MRT archives are cached on disk (exactly the
// artifact a real measurement pipeline would store) and reloaded by
// later benches. Delete the cache directory to force re-simulation.

#pragma once

#include <string>

#include "scenarios/longlived2024.hpp"
#include "scenarios/ris_replication.hpp"

namespace zombiescope::bench {

/// Cache directory ($ZS_CACHE_DIR or ./zs_bench_cache).
std::string cache_dir();

/// Loads (or simulates + stores) a replication period. `which` is
/// 0 = 2018-07, 1 = 2017-10, 2 = 2017-03.
scenarios::ScenarioOutput load_ris_period(int which);
scenarios::RisPeriodSpec ris_spec(int which);

/// Loads (or simulates + stores) the 2024 long-lived experiment.
scenarios::LongLived2024Output load_longlived2024();

/// Starts the bench telemetry session: records the wall-clock start,
/// begins a zsprof sampling session (skipped when the profiler is
/// compiled out), and begins a zsheap allocation session (skipped when
/// compiled out or the build runs under a sanitizer). Idempotent;
/// called by print_header, and directly by benches with a custom main.
void begin_bench_session();

/// Prints a section header for the harness output. Also starts the
/// telemetry session and installs the at-exit snapshot (see
/// emit_metrics_snapshot), so every bench binary leaves a
/// BENCH_<tool>.json behind for trajectory diffing.
void print_header(const std::string& title, const std::string& paper_ref);

/// Stops the profiling sessions and writes the global metrics registry
/// (zsobs-v1 JSON: spans, build info, bench name, wall time, peak RSS,
/// a zsprof profile section, and a zsheap heap section) to
/// BENCH_<name>.json in
/// $ZS_BENCH_JSON_DIR (default: the working directory). The JSON is
/// suppressed when $ZS_NO_BENCH_JSON is set. Never throws: a failed
/// snapshot must not fail the bench.
void emit_metrics_snapshot(const std::string& name);

}  // namespace zombiescope::bench
