#include "obs/heap.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "netbase/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stacksample.hpp"

// Interposition wants glibc's __libc_malloc family as the backing
// allocator (no dlsym bootstrap problem) and must never compete with a
// sanitizer runtime, which interposes malloc itself. Sanitized builds
// therefore compile the strong-symbol overrides out entirely; the
// runtime check in interposition_available() additionally catches a
// sanitizer runtime linked into a binary whose heap.cpp was compiled
// clean (weak __asan/__tsan/__msan symbols resolve non-null).
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(leak_sanitizer)
#define ZS_HEAP_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ZS_HEAP_UNDER_SANITIZER 1
#endif
#ifndef ZS_HEAP_UNDER_SANITIZER
#define ZS_HEAP_UNDER_SANITIZER 0
#endif

#if ZS_HEAP_ENABLED && defined(__GLIBC__) && defined(__linux__) && \
    !ZS_HEAP_UNDER_SANITIZER
#define ZS_HEAP_INTERPOSE 1
#else
#define ZS_HEAP_INTERPOSE 0
#endif

#if ZS_HEAP_INTERPOSE
#include <malloc.h>  // malloc_usable_size

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <new>
#include <vector>

extern "C" {
// Weak references to the sanitizer runtimes' init entry points: when a
// sanitizer runtime is linked anywhere in the process these resolve
// non-null and zsheap refuses to start (DESIGN.md §7).
__attribute__((weak)) void __asan_init();
__attribute__((weak)) void __tsan_init();
__attribute__((weak)) void __msan_init();

// glibc's public backing allocator, callable from inside the
// interposed symbols without recursing through them.
void* __libc_malloc(std::size_t size);
void __libc_free(void* ptr);
void* __libc_calloc(std::size_t n, std::size_t size);
void* __libc_realloc(void* ptr, std::size_t size);
void* __libc_memalign(std::size_t alignment, std::size_t size);
}
#endif

namespace zombiescope::obs {

using netbase::json_escape;

namespace {

std::string heap_format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// The size-class histogram's JSON/report label for class i: its upper
/// bound in bytes, "big" for the overflow class.
std::string size_class_label(std::size_t i) {
  if (i + 1 >= kHeapSizeClasses) return "big";
  return std::to_string(std::size_t{16} << i);
}

}  // namespace

// ---------------------------------------------------------------------------
// Report rendering.

std::string HeapReport::to_folded() const {
  std::string out;
  for (const HeapSite& site : top_sites) {
    out += site.stack;
    out += ' ';
    out += std::to_string(site.bytes);
    out += '\n';
  }
  return out;
}

std::string HeapReport::top_report(std::size_t n) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "== zsheap: %" PRIu64 " alloc(s), %" PRIu64
                " bytes over %.2f s (peak live +%" PRIu64 " bytes, %" PRIu64
                " sampled stacks, %" PRIu64 " dropped)\n",
                allocs, total_bytes, duration_s, peak_live_bytes, samples,
                dropped);
  out += buf;
  if (!span_bytes.empty()) {
    out += "== per-span allocation shares (exhaustive)\n";
    std::vector<std::pair<std::string, HeapSpanAlloc>> spans(span_bytes.begin(),
                                                             span_bytes.end());
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      return a.second.bytes > b.second.bytes;
    });
    for (const auto& [name, alloc] : spans) {
      const double share = total_bytes == 0
                               ? 0.0
                               : static_cast<double>(alloc.bytes) /
                                     static_cast<double>(total_bytes);
      std::snprintf(buf, sizeof(buf),
                    "  %6.2f%%  %14" PRIu64 " B  %10" PRIu64 "  %s\n",
                    100.0 * share, alloc.bytes, alloc.allocs, name.c_str());
      out += buf;
    }
  }
  if (!top_sites.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "== top allocation sites (1-in-%" PRIu64
                  " sampled bytes / allocs)\n",
                  sample_every);
    out += buf;
    std::size_t shown = 0;
    for (const HeapSite& site : top_sites) {
      if (++shown > n) break;
      const double share = sampled_bytes == 0
                               ? 0.0
                               : static_cast<double>(site.bytes) /
                                     static_cast<double>(sampled_bytes);
      std::snprintf(buf, sizeof(buf),
                    "  %6.2f%%  %12" PRIu64 " B  %8" PRIu64 "  %s\n",
                    100.0 * share, site.bytes, site.allocs, site.stack.c_str());
      out += buf;
    }
  }
  return out;
}

std::string HeapReport::to_json(std::size_t top_n) const {
  std::string out = "{\"schema\": \"zsheap-v1\"";
  out += ", \"valid\": " + std::string(valid ? "true" : "false");
  out += ", \"duration_s\": " + heap_format_double(duration_s);
  out += ", \"sample_every\": " + std::to_string(sample_every);
  out += ", \"total_bytes\": " + std::to_string(total_bytes);
  out += ", \"allocs\": " + std::to_string(allocs);
  out += ", \"frees\": " + std::to_string(frees);
  out += ", \"freed_bytes\": " + std::to_string(freed_bytes);
  out += ", \"live_bytes\": " + std::to_string(live_bytes);
  out += ", \"peak_live_bytes\": " + std::to_string(peak_live_bytes);
  out += ", \"samples\": " + std::to_string(samples);
  out += ", \"sampled_bytes\": " + std::to_string(sampled_bytes);
  out += ", \"dropped\": " + std::to_string(dropped);
  out += ", \"size_class_allocs\": {";
  bool first = true;
  for (std::size_t i = 0; i < kHeapSizeClasses; ++i) {
    if (size_class_allocs[i] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + size_class_label(i) +
           "\": " + std::to_string(size_class_allocs[i]);
  }
  out += "}, \"spans\": {";
  first = true;
  for (const auto& [name, alloc] : span_bytes) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(name) +
           "\": {\"bytes\": " + std::to_string(alloc.bytes) +
           ", \"allocs\": " + std::to_string(alloc.allocs) + "}";
  }
  out += "}, \"top_sites\": [";
  std::size_t shown = 0;
  for (const HeapSite& site : top_sites) {
    if (shown >= top_n) break;
    if (shown != 0) out += ", ";
    ++shown;
    out += "{\"stack\": \"" + json_escape(site.stack) +
           "\", \"bytes\": " + std::to_string(site.bytes) +
           ", \"allocs\": " + std::to_string(site.allocs) + "}";
  }
  out += "]}";
  return out;
}

#if ZS_HEAP_INTERPOSE

namespace stacksample {

void* raw_alloc(std::size_t size) noexcept { return __libc_malloc(size); }

/// zsheap's per-thread state beside the shared core's: exhaustive
/// counters, the span table and the 1-in-N countdown. Owner-written
/// (bump), aggregated cross-thread by stop().
struct HeapCells {
  ThreadState* thread = nullptr;
  std::atomic<std::uint64_t> total_bytes{0};
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> freed_bytes{0};
  std::atomic<std::uint64_t> size_class[kHeapSizeClasses] = {};

  // Per-span attribution: a small open-address table keyed by the
  // interned name pointer. Spans are few (tens per process); overflow
  // lands in a catch-all bucket so the table never grows in the hook.
  static constexpr std::size_t kSpanSlots = 64;
  std::atomic<const char*> span_name[kSpanSlots] = {};
  std::atomic<std::uint64_t> span_bytes[kSpanSlots] = {};
  std::atomic<std::uint64_t> span_allocs[kSpanSlots] = {};
  std::atomic<std::uint64_t> span_other_bytes{0};
  std::atomic<std::uint64_t> span_other_allocs{0};
  std::atomic<std::uint64_t> unattributed_bytes{0};
  std::atomic<std::uint64_t> unattributed_allocs{0};

  // 1-in-N stack sampling.
  std::atomic<std::uint64_t> countdown{0};

  /// Zeroes the session counters; only while no hook is active, so the
  /// cross-thread relaxed stores cannot collide with owner writes.
  void reset(std::uint64_t sample_every) {
    for (auto* cell : {&total_bytes, &allocs, &frees, &freed_bytes, &span_other_bytes,
                       &span_other_allocs, &unattributed_bytes, &unattributed_allocs})
      cell->store(0, std::memory_order_relaxed);
    for (auto& cell : size_class) cell.store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < kSpanSlots; ++i) {
      span_name[i].store(nullptr, std::memory_order_relaxed);
      span_bytes[i].store(0, std::memory_order_relaxed);
      span_allocs[i].store(0, std::memory_order_relaxed);
    }
    countdown.store(sample_every, std::memory_order_relaxed);
  }
};

}  // namespace stacksample

namespace {

namespace ss = stacksample;
using ss::HeapCells;

bool sanitizer_runtime_linked() {
  return &__asan_init != nullptr || &__tsan_init != nullptr ||
         &__msan_init != nullptr;
}

/// Owner-thread increment of a counter that stop() reads cross-thread:
/// a relaxed load+store pair compiles to a plain add (no lock prefix)
/// because the owner is the only writer — this is what keeps the
/// active-session hot path cheap enough for the <5% bench bound.
inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

// The hook fast path reads only these. All constant-initialized so an
// allocation before dynamic initialization (dlopen, iostream setup)
// sees a coherent "inactive" state.
constinit std::atomic<bool> g_heap_active{false};
constinit std::atomic<std::uint64_t> g_heap_sample_every{1024};
constinit std::atomic<std::int64_t> g_heap_live{0};
constinit std::atomic<std::uint64_t> g_heap_peak{0};
constinit std::atomic<std::uint64_t> g_heap_sample_drops{0};

// Reentrancy guard: internal allocations (the stack-bounds query's
// /proc read during thread registration, the report's own containers) route
// through the interposed symbols too; the guard keeps them out of the
// accounting. Plain POD thread_locals so first access never allocates.
thread_local bool t_heap_in_hook = false;
thread_local HeapCells* t_cells = nullptr;

/// The calling thread's cells, created on its first accounted
/// allocation from memory that bypasses the interposed allocator.
HeapCells* heap_cells() {
  if (t_cells != nullptr) return t_cells;
  ss::ThreadState* ts = ss::thread_state();
  if (ts == nullptr) return nullptr;
  void* mem = ss::raw_alloc(sizeof(HeapCells));
  if (mem == nullptr) return nullptr;
  auto* cells = new (mem) HeapCells();
  cells->thread = ts;
  cells->countdown.store(g_heap_sample_every.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  ts->heap.store(cells, std::memory_order_release);
  t_cells = cells;
  return cells;
}

/// Requested-size histogram class: i covers sizes <= 16 << i, the last
/// class is the overflow bucket.
inline std::size_t size_class_of(std::size_t size) {
  if (size <= 16) return 0;
  const std::size_t bits =
      64u - static_cast<std::size_t>(
                __builtin_clzll(static_cast<unsigned long long>(size - 1)));
  const std::size_t cls = bits - 4;
  return cls < kHeapSizeClasses ? cls : kHeapSizeClasses - 1;
}

void attribute_span(HeapCells* cells, const char* span, std::uint64_t bytes) {
  if (span == nullptr) {
    bump(cells->unattributed_bytes, bytes);
    bump(cells->unattributed_allocs, 1);
    return;
  }
  const std::uintptr_t key = reinterpret_cast<std::uintptr_t>(span);
  std::size_t slot = (key >> 4) * 0x9E3779B97F4A7C15ull >>
                     (64 - 6);  // 2^6 == kSpanSlots
  for (std::size_t probe = 0; probe < HeapCells::kSpanSlots; ++probe) {
    const char* existing = cells->span_name[slot].load(std::memory_order_relaxed);
    if (existing == nullptr) {
      // Owner thread is the only writer; the relaxed store publishes
      // the slot for stop()'s cross-thread read.
      cells->span_name[slot].store(span, std::memory_order_relaxed);
      existing = span;
    }
    if (existing == span) {
      bump(cells->span_bytes[slot], bytes);
      bump(cells->span_allocs[slot], 1);
      return;
    }
    slot = (slot + 1) & (HeapCells::kSpanSlots - 1);
  }
  bump(cells->span_other_bytes, bytes);
  bump(cells->span_other_allocs, 1);
}

void maybe_sample(HeapCells* cells, const char* span, std::uint64_t bytes) {
  const std::uint64_t countdown = cells->countdown.load(std::memory_order_relaxed);
  if (countdown == 0) return;  // sampling disabled (sample_every == 0)
  if (countdown > 1) {
    cells->countdown.store(countdown - 1, std::memory_order_relaxed);
    return;
  }
  cells->countdown.store(g_heap_sample_every.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  ss::Ring* ring = ss::ring(*cells->thread, ss::kAlloc);
  ss::Sample* sample = ring == nullptr ? nullptr : ring->claim();
  if (sample == nullptr) {
    g_heap_sample_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  sample->weight = bytes;
  sample->n_spans = span == nullptr ? 0 : 1;
  sample->spans[0] = span;
  sample->n_pcs = ss::walk(reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)),
                           *cells->thread, sample->pcs, 0);
  ring->publish();
}

}  // namespace

namespace heap_detail {

/// The accounting hook behind every interposed allocation entry point.
/// Inactive sessions cost one relaxed load; active ones do per-thread
/// plain-add counters plus one global fetch_add for live/peak.
void note_alloc(void* ptr, std::size_t requested) noexcept {
  if (!g_heap_active.load(std::memory_order_relaxed)) return;
  if (ptr == nullptr || t_heap_in_hook) return;
  t_heap_in_hook = true;
  HeapCells* cells = heap_cells();
  if (cells != nullptr) {
    const std::uint64_t usable = malloc_usable_size(ptr);
    bump(cells->total_bytes, usable);
    bump(cells->allocs, 1);
    bump(cells->size_class[size_class_of(requested)], 1);
    const char* span = ss::innermost_span(*cells->thread);
    attribute_span(cells, span, usable);
    const std::int64_t live =
        g_heap_live.fetch_add(static_cast<std::int64_t>(usable),
                              std::memory_order_relaxed) +
        static_cast<std::int64_t>(usable);
    if (live > 0) {
      const auto live_u = static_cast<std::uint64_t>(live);
      std::uint64_t peak = g_heap_peak.load(std::memory_order_relaxed);
      while (live_u > peak && !g_heap_peak.compare_exchange_weak(
                                  peak, live_u, std::memory_order_relaxed)) {
      }
    }
    maybe_sample(cells, span, usable);
  }
  t_heap_in_hook = false;
}

void note_free_bytes(std::size_t usable) noexcept {
  if (!g_heap_active.load(std::memory_order_relaxed)) return;
  if (t_heap_in_hook) return;
  t_heap_in_hook = true;
  if (HeapCells* cells = heap_cells()) {
    bump(cells->frees, 1);
    bump(cells->freed_bytes, usable);
    g_heap_live.fetch_sub(static_cast<std::int64_t>(usable),
                          std::memory_order_relaxed);
  }
  t_heap_in_hook = false;
}

void note_free(void* ptr) noexcept {
  if (ptr == nullptr) return;
  if (!g_heap_active.load(std::memory_order_relaxed)) return;
  note_free_bytes(malloc_usable_size(ptr));
}

bool active() noexcept {
  return g_heap_active.load(std::memory_order_relaxed);
}

}  // namespace heap_detail

// ---------------------------------------------------------------------------
// Session control and aggregation.

namespace {

struct HeapSession {
  bool running = false;
  HeapProfilerOptions options;
  std::chrono::steady_clock::time_point started_at;
};

std::mutex g_heap_control_mutex;  // serializes start()/stop()
HeapSession& heap_session() {
  static auto* s = new HeapSession();
  return *s;
}

/// Sum of the exhaustive per-thread counters (cross-thread relaxed
/// reads of owner-written cells; exact once the session is stopped).
struct HeapTotals {
  std::uint64_t total_bytes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t freed_bytes = 0;
  std::array<std::uint64_t, kHeapSizeClasses> size_class_allocs{};
  std::map<std::string, HeapSpanAlloc> span_bytes;
};

HeapTotals aggregate_totals() {
  HeapTotals totals;
  std::uint64_t other_bytes = 0;
  std::uint64_t other_allocs = 0;
  std::uint64_t none_bytes = 0;
  std::uint64_t none_allocs = 0;
  for (const ss::ThreadState* ts = ss::threads(); ts != nullptr; ts = ts->next) {
    const HeapCells* cells = ts->heap.load(std::memory_order_acquire);
    if (cells == nullptr) continue;
    totals.total_bytes += cells->total_bytes.load(std::memory_order_relaxed);
    totals.allocs += cells->allocs.load(std::memory_order_relaxed);
    totals.frees += cells->frees.load(std::memory_order_relaxed);
    totals.freed_bytes += cells->freed_bytes.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kHeapSizeClasses; ++i)
      totals.size_class_allocs[i] +=
          cells->size_class[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < HeapCells::kSpanSlots; ++i) {
      const char* name = cells->span_name[i].load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      HeapSpanAlloc& cell = totals.span_bytes[name];
      cell.bytes += cells->span_bytes[i].load(std::memory_order_relaxed);
      cell.allocs += cells->span_allocs[i].load(std::memory_order_relaxed);
    }
    other_bytes += cells->span_other_bytes.load(std::memory_order_relaxed);
    other_allocs += cells->span_other_allocs.load(std::memory_order_relaxed);
    none_bytes += cells->unattributed_bytes.load(std::memory_order_relaxed);
    none_allocs += cells->unattributed_allocs.load(std::memory_order_relaxed);
  }
  if (other_allocs != 0)
    totals.span_bytes["(other spans)"] = {other_bytes, other_allocs};
  if (none_allocs != 0)
    totals.span_bytes["(no span)"] = {none_bytes, none_allocs};
  return totals;
}

/// Drains every ring and folds the samples into symbolized sites.
void drain_and_fold(HeapReport& report) {
  ss::Aggregate aggregate;
  ss::drain(ss::kAlloc, aggregate);
  std::map<std::string, ss::Weight> folded;
  for (const ss::Stack& stack : ss::symbolize(aggregate)) {
    report.samples += stack.weight.count;
    report.sampled_bytes += stack.weight.weight;
    ss::Weight& site = folded[stack.folded()];
    site.weight += stack.weight.weight;
    site.count += stack.weight.count;
  }
  report.top_sites.reserve(folded.size());
  for (const auto& [stack, site] : folded)
    report.top_sites.push_back({stack, site.weight, site.count});
  std::sort(report.top_sites.begin(), report.top_sites.end(),
            [](const HeapSite& a, const HeapSite& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return a.stack < b.stack;
            });
}

}  // namespace

HeapProfiler& HeapProfiler::global() {
  static auto* profiler = new HeapProfiler();
  return *profiler;
}

bool HeapProfiler::interposition_compiled() { return true; }

bool HeapProfiler::interposition_available() {
  return !sanitizer_runtime_linked();
}

bool HeapProfiler::running() const {
  return g_heap_active.load(std::memory_order_relaxed);
}

std::uint64_t HeapProfiler::allocs_observed() const {
  return aggregate_totals().allocs;
}

bool HeapProfiler::start(const HeapProfilerOptions& options) {
  if (!interposition_available()) return false;
  std::lock_guard control(g_heap_control_mutex);
  HeapSession& s = heap_session();
  if (s.running) return false;

  s.options = options;
  g_heap_sample_every.store(options.sample_every, std::memory_order_relaxed);
  g_heap_live.store(0, std::memory_order_relaxed);
  g_heap_peak.store(0, std::memory_order_relaxed);
  g_heap_sample_drops.store(0, std::memory_order_relaxed);

  // Register the calling thread, zero every known thread's counters and
  // give it an empty ring.
  ss::thread_state();
  for (ss::ThreadState* ts = ss::threads(); ts != nullptr; ts = ts->next) {
    if (HeapCells* cells = ts->heap.load(std::memory_order_acquire))
      cells->reset(options.sample_every);
  }
  ss::arm(ss::kAlloc, options.ring_capacity);

  s.started_at = std::chrono::steady_clock::now();
  s.running = true;
  g_heap_active.store(true, std::memory_order_relaxed);
  return true;
}

HeapReport HeapProfiler::stop() {
  std::lock_guard control(g_heap_control_mutex);
  HeapSession& s = heap_session();
  if (!s.running) return {};

  g_heap_active.store(false, std::memory_order_relaxed);

  HeapReport report;
  report.valid = true;
  report.sample_every = s.options.sample_every;
  report.duration_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - s.started_at)
                          .count();
  const HeapTotals totals = aggregate_totals();
  report.total_bytes = totals.total_bytes;
  report.allocs = totals.allocs;
  report.frees = totals.frees;
  report.freed_bytes = totals.freed_bytes;
  report.size_class_allocs = totals.size_class_allocs;
  report.span_bytes = totals.span_bytes;
  report.live_bytes = g_heap_live.load(std::memory_order_relaxed);
  report.peak_live_bytes = g_heap_peak.load(std::memory_order_relaxed);
  report.dropped = g_heap_sample_drops.load(std::memory_order_relaxed);
  drain_and_fold(report);
  ss::disarm(ss::kAlloc);

  s.running = false;
  heap_publish_metrics();
  return report;
}

void heap_publish_metrics() {
  // Lazily registered gauges (registration allocates; fine in normal
  // context). Gauges, not counters: they snapshot the current/last
  // session rather than a process-lifetime monotone series.
  static const struct Cells {
    Gauge active = Registry::global().gauge("zs_heap_session_active");
    Gauge total_bytes = Registry::global().gauge("zs_heap_total_bytes");
    Gauge allocs = Registry::global().gauge("zs_heap_allocs");
    Gauge frees = Registry::global().gauge("zs_heap_frees");
    Gauge freed_bytes = Registry::global().gauge("zs_heap_freed_bytes");
    Gauge live_bytes = Registry::global().gauge("zs_heap_live_bytes");
    Gauge peak_live = Registry::global().gauge("zs_heap_peak_live_bytes");
    Gauge drops = Registry::global().gauge("zs_heap_sample_drops");
  } cells;
  const HeapTotals totals = aggregate_totals();
  cells.active.set(g_heap_active.load(std::memory_order_relaxed) ? 1 : 0);
  cells.total_bytes.set(static_cast<std::int64_t>(totals.total_bytes));
  cells.allocs.set(static_cast<std::int64_t>(totals.allocs));
  cells.frees.set(static_cast<std::int64_t>(totals.frees));
  cells.freed_bytes.set(static_cast<std::int64_t>(totals.freed_bytes));
  cells.live_bytes.set(g_heap_live.load(std::memory_order_relaxed));
  cells.peak_live.set(
      static_cast<std::int64_t>(g_heap_peak.load(std::memory_order_relaxed)));
  cells.drops.set(static_cast<std::int64_t>(
      g_heap_sample_drops.load(std::memory_order_relaxed)));
}

}  // namespace zombiescope::obs

// ---------------------------------------------------------------------------
// The interposed allocator symbols. Strong definitions in any binary
// linking zs_obs override glibc's weak malloc family process-wide; the
// backing allocator is always __libc_*, so pointers stay exchangeable
// with code that never heard of zsheap.

extern "C" void* malloc(std::size_t size) noexcept {
  void* ptr = __libc_malloc(size);
  zombiescope::obs::heap_detail::note_alloc(ptr, size);
  return ptr;
}

extern "C" void free(void* ptr) noexcept {
  zombiescope::obs::heap_detail::note_free(ptr);
  __libc_free(ptr);
}

extern "C" void* calloc(std::size_t n, std::size_t size) noexcept {
  void* ptr = __libc_calloc(n, size);
  zombiescope::obs::heap_detail::note_alloc(ptr, n * size);
  return ptr;
}

extern "C" void* realloc(void* ptr, std::size_t size) noexcept {
  const std::size_t old_usable =
      (ptr != nullptr && zombiescope::obs::heap_detail::active())
          ? malloc_usable_size(ptr)
          : 0;
  void* out = __libc_realloc(ptr, size);
  // The old block is gone on success, and also on realloc(p, 0).
  if (ptr != nullptr && (out != nullptr || size == 0))
    zombiescope::obs::heap_detail::note_free_bytes(old_usable);
  if (out != nullptr && size != 0)
    zombiescope::obs::heap_detail::note_alloc(out, size);
  return out;
}

extern "C" void* aligned_alloc(std::size_t alignment, std::size_t size) noexcept {
  void* ptr = __libc_memalign(alignment, size);
  zombiescope::obs::heap_detail::note_alloc(ptr, size);
  return ptr;
}

extern "C" int posix_memalign(void** out, std::size_t alignment,
                              std::size_t size) noexcept {
  if (alignment < sizeof(void*) || (alignment & (alignment - 1)) != 0)
    return EINVAL;
  void* ptr = __libc_memalign(alignment, size);
  if (ptr == nullptr) return ENOMEM;
  zombiescope::obs::heap_detail::note_alloc(ptr, size);
  *out = ptr;
  return 0;
}

// Replaceable operator new/delete, forwarded through the interposed C
// entry points so accounting stays single-path (malloc notes the
// allocation; operator new adds only the bad_alloc contract).

void* operator new(std::size_t size) {
  void* ptr = malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return malloc(size == 0 ? 1 : size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* ptr = __libc_memalign(static_cast<std::size_t>(alignment),
                              size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  zombiescope::obs::heap_detail::note_alloc(ptr, size);
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  void* ptr = __libc_memalign(static_cast<std::size_t>(alignment),
                              size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  zombiescope::obs::heap_detail::note_alloc(ptr, size);
  return ptr;
}

void operator delete(void* ptr) noexcept { free(ptr); }
void operator delete[](void* ptr) noexcept { free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  free(ptr);
}

namespace zombiescope::obs {

#else  // no interposition: ZS_HEAP_ENABLED=0, or a sanitizer owns malloc

// Nothing to bypass. Under a sanitizer glibc's allocator must not be
// called directly: its per-thread arena bookkeeping was never set up,
// and a thread exit then aborts on it.
void* stacksample::raw_alloc(std::size_t size) noexcept { return std::malloc(size); }

HeapProfiler& HeapProfiler::global() {
  static auto* profiler = new HeapProfiler();
  return *profiler;
}
bool HeapProfiler::interposition_compiled() { return false; }
bool HeapProfiler::interposition_available() { return false; }
bool HeapProfiler::start(const HeapProfilerOptions&) { return false; }
HeapReport HeapProfiler::stop() { return {}; }
bool HeapProfiler::running() const { return false; }
std::uint64_t HeapProfiler::allocs_observed() const { return 0; }
void heap_publish_metrics() {}

#endif  // ZS_HEAP_INTERPOSE

ScopedHeapSession::ScopedHeapSession(std::string path)
    : path_(std::move(path)) {
  if (path_.empty()) return;
  if constexpr (!kHeapCompiledIn) {
    std::fprintf(stderr,
                 "--heap-out ignored: allocation profiler compiled out "
                 "(ZS_HEAP_ENABLED=0)\n");
    return;
  }
  if (!HeapProfiler::interposition_available()) {
    std::fprintf(stderr,
                 "--heap-out ignored: allocator interposition unavailable "
                 "(sanitizer build)\n");
    return;
  }
  active_ = HeapProfiler::global().start();
  if (!active_)
    std::fprintf(stderr, "--heap-out ignored: cannot start heap profiler "
                         "(already running?)\n");
}

ScopedHeapSession::~ScopedHeapSession() {
  if (!active_) return;
  const HeapReport report = HeapProfiler::global().stop();
  std::FILE* out = std::fopen(path_.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write heap profile to %s\n",
                 path_.c_str());
  } else {
    const std::string json = report.to_json();
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
  }
  std::fprintf(stderr, "%s", report.top_report(15).c_str());
  std::fprintf(stderr,
               "heap profile: %" PRIu64 " alloc(s), %" PRIu64
               " bytes -> %s\n",
               report.allocs, report.total_bytes, path_.c_str());
}

}  // namespace zombiescope::obs
