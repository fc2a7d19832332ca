// obs/heap.hpp — zsheap, the span-attributed allocation profiler.
//
// The allocation-side twin of zsprof: where zsprof answers "where did
// the CPU go", zsheap answers "who allocated, how much, and in which
// phase". On Linux the library interposes malloc/calloc/realloc/free
// (strong-symbol override backed by glibc's __libc_malloc family) and
// the replaceable operator new/delete, so every allocation in the
// process flows through one accounting hook:
//
//   * per-thread counters — cumulative bytes, alloc/free counts, and a
//     power-of-two size-class histogram — aggregated at stop();
//   * live/peak tracking via one process-global pair of atomics;
//   * span attribution: each allocation is credited to the innermost
//     active zsobs span of the calling thread, read from the span stack
//     zsprof shares (obs/stacksample.hpp; ScopedSpan pushes it while
//     either session runs);
//   * a 1-in-N sampler (default 1024) captures frame-pointer call
//     stacks with the shared bounds-checked walk into per-thread SPSC
//     rings; stop() folds and self-symbolizes them (dynamic symbols +
//     demangling) into a top-N allocation-site table.
//
// When no session is active the interposed hot path is a single
// relaxed atomic load on top of libc's allocator. Sanitizer builds
// (ASan/TSan/MSan own the allocator) compile the interposition out and
// detect a sanitizer runtime at start() via weak __sanitizer symbols —
// zsheap steps aside instead of fighting for malloc (DESIGN.md §7).
// ZS_HEAP_ENABLED=0 (cmake -DZS_HEAP=OFF, the build's one compile-out
// switch) leaves malloc to libc and every entry point inert, enforced
// by tests/heap_compileout_test.
//
// Surfaces: --heap-out on zssim/zsdetect/zslived, GET /heap?seconds=N
// on the obs HTTP server, the `heap` section of every BENCH_*.json,
// and zs_heap_* gauges in the exporters. zsbenchdiff gates
// heap:total_bytes / heap:allocs with --gate-alloc.

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#ifndef ZS_HEAP_ENABLED
#define ZS_HEAP_ENABLED 1
#endif

namespace zombiescope::obs {

/// True when the allocation profiler hooks are compiled in. Call sites
/// guard with `if constexpr (kHeapCompiledIn)` so a ZS_HEAP_ENABLED=0
/// build executes exactly zero profiler code.
inline constexpr bool kHeapCompiledIn = ZS_HEAP_ENABLED != 0;

/// Size-class histogram buckets: class i counts allocations with
/// requested size <= 2^(i+4) bytes (16 B .. 256 KiB), the last class
/// is the overflow bucket.
inline constexpr std::size_t kHeapSizeClasses = 16;

struct HeapProfilerOptions {
  /// Capture one call stack per this many allocations (per thread).
  /// 1 samples everything; 0 disables stack sampling entirely.
  std::uint64_t sample_every = 1024;
  /// Per-thread sample ring capacity (rounded up to a power of two).
  std::size_t ring_capacity = 4096;
};

/// One folded allocation site of the top-N table:
/// "span;...;frame;frame" (root first) with its sampled cost.
struct HeapSite {
  std::string stack;
  std::uint64_t bytes = 0;   // sampled bytes attributed to this stack
  std::uint64_t allocs = 0;  // sampled allocation count
};

/// Per-span allocation attribution (exhaustive, not sampled).
struct HeapSpanAlloc {
  std::uint64_t bytes = 0;
  std::uint64_t allocs = 0;
};

/// Aggregated result of one allocation-profiling session.
struct HeapReport {
  bool valid = false;  // false: profiler never ran (or compiled out)
  double duration_s = 0.0;
  std::uint64_t sample_every = 0;

  // Exhaustive counters over the session window.
  std::uint64_t total_bytes = 0;  // cumulative allocated (usable sizes)
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t freed_bytes = 0;
  /// Net live delta at stop() (can be negative: blocks allocated
  /// before the session and freed inside it).
  std::int64_t live_bytes = 0;
  /// Peak of the net live delta during the session (never negative).
  std::uint64_t peak_live_bytes = 0;

  // Stack-sampling accounting.
  std::uint64_t samples = 0;
  std::uint64_t sampled_bytes = 0;
  std::uint64_t dropped = 0;  // ring-overflow losses

  /// Requested-size histogram; index per kHeapSizeClasses.
  std::array<std::uint64_t, kHeapSizeClasses> size_class_allocs{};

  /// Innermost active span ("(no span)" when none) -> exhaustive
  /// bytes/alloc attribution.
  std::map<std::string, HeapSpanAlloc> span_bytes;
  /// Sampled allocation sites, sorted by bytes descending.
  std::vector<HeapSite> top_sites;

  /// Flamegraph-ready folded text of the sampled sites, weighted by
  /// bytes: one "stack bytes" line per site.
  std::string to_folded() const;
  /// Human-readable per-span shares + top-N site table.
  std::string top_report(std::size_t n = 20) const;
  /// The "heap" section of BENCH_*.json: schema zsheap-v1.
  std::string to_json(std::size_t top_n = 20) const;
};

/// The process-wide allocation profiler. The interposed allocator is a
/// process-global resource, so there is exactly one; start()/stop()
/// may be called from any thread.
class HeapProfiler {
 public:
  /// The singleton every entry point (CLI --heap-out, GET /heap, the
  /// bench harness) shares.
  static HeapProfiler& global();

  /// True when this build carries the interposed allocator symbols
  /// (Linux/glibc, no sanitizer). False under ASan/TSan/MSan or
  /// ZS_HEAP_ENABLED=0 — the build defers to the sanitizer allocator.
  static bool interposition_compiled();
  /// interposition_compiled() AND no sanitizer runtime is linked into
  /// the process (detected via weak __sanitizer symbols at runtime).
  static bool interposition_available();

  /// Arms the accounting hooks. Returns false if already running,
  /// compiled out, or interposition is unavailable (sanitizer build).
  bool start(const HeapProfilerOptions& options = {});

  /// Disarms the hooks, drains the sample rings, symbolizes, and
  /// returns the aggregated report. Invalid report when not running.
  HeapReport stop();

  bool running() const;
  /// Allocations accounted so far in the active session (approximate).
  std::uint64_t allocs_observed() const;

 private:
  HeapProfiler() = default;
};

/// The --heap-out CLI helper: starts a global allocation-profiling
/// session on construction (when `path` is non-empty and interposition
/// is available), and on destruction stops it, writes the zsheap-v1
/// JSON report to `path`, and prints the top-sites summary to stderr.
/// Does nothing at all for an empty path.
class ScopedHeapSession {
 public:
  explicit ScopedHeapSession(std::string path);
  ~ScopedHeapSession();
  ScopedHeapSession(const ScopedHeapSession&) = delete;
  ScopedHeapSession& operator=(const ScopedHeapSession&) = delete;

  bool active() const { return active_; }

 private:
  std::string path_;
  bool active_ = false;
};

/// Copies the live session counters into the zs_heap_* registry gauges
/// so /metrics scrapes and exporter snapshots carry them. Called by
/// stop(), the /metrics route, and the bench harness; cheap enough to
/// call on every scrape. No-op when no session ever ran.
void heap_publish_metrics();

}  // namespace zombiescope::obs
