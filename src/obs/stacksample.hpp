// obs/stacksample.hpp — the stack-sampling core shared by zsprof and
// zsheap. Internal to zs_obs: no public header includes it.
//
// Both samplers capture "which spans were open, which frames were on
// the stack" and fold the captures into flamegraph stacks. What they
// share lives here:
//
//   * a registry of per-thread state: the pthread stack bounds, the
//     active-span stack, and one sample ring per sampler. Registration
//     takes its memory from raw_alloc (glibc's __libc_malloc while zsheap
//     interposes), so it never re-enters the interposed allocator;
//     entries are never freed (a sampler may race a thread's exit);
//   * the span stack ScopedSpan pushes once while either sampler is
//     armed — the owner thread writes it, a SIGPROF handler or the
//     allocation hook on the same thread reads it, and signal fences
//     order the two;
//   * an intern table, so span-name pointers outlive their spans;
//   * the bounds-checked frame-pointer walk;
//   * SPSC drop-on-full sample rings (owner thread produces, the
//     sampler's consumer drains);
//   * the symbolizer (dynamic symbols + demangling) and the stack
//     folder.
//
// The producer-side calls (current, ring claim/publish, copy_spans,
// innermost_span, walk) neither allocate nor lock, so the SIGPROF
// handler may use them.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

// For the signal handler and what it calls: the walk reads raw stack
// memory (bounds-checked against the thread's stack segment, but inside
// ASan redzones), and sanitizer runtimes are not async-signal-safe.
#define ZS_NO_SANITIZE __attribute__((no_sanitize("address", "thread", "undefined")))

namespace zombiescope::obs::stacksample {

inline constexpr std::size_t kMaxFrames = 48;
inline constexpr std::size_t kMaxSpanDepth = 16;

/// The two samplers, each with its own ring per thread.
enum Channel : unsigned { kCpu = 0, kAlloc = 1, kChannels = 2 };

/// One captured stack. Trivially copyable, so rings move plain bytes.
struct Sample {
  std::uint64_t weight = 0;  // 1 per CPU sample; bytes per allocation
  std::uint32_t n_spans = 0;
  std::uint32_t n_pcs = 0;
  const char* spans[kMaxSpanDepth];  // root first
  std::uintptr_t pcs[kMaxFrames];    // leaf first
};

/// SPSC ring: the owner thread produces, one consumer drains.
struct Ring {
  Sample* slots = nullptr;
  std::size_t mask = 0;
  alignas(64) std::atomic<std::uint64_t> head{0};
  alignas(64) std::atomic<std::uint64_t> tail{0};

  /// The slot to fill, or nullptr when full (drop, never wait).
  Sample* claim() noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    if (h - tail.load(std::memory_order_acquire) > mask) return nullptr;
    return &slots[h & mask];
  }
  /// Hands the claimed slot to the consumer.
  void publish() noexcept {
    head.store(head.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  }
};

struct HeapCells;  // zsheap's per-thread counters (obs/heap.cpp)

struct ThreadState {
  // Owner-written; read by a handler or hook on the same thread.
  const char* span_stack[kMaxSpanDepth] = {};
  std::atomic<std::uint32_t> span_depth{0};
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
  std::atomic<Ring*> rings[kChannels] = {};
  std::atomic<HeapCells*> heap{nullptr};
  ThreadState* next = nullptr;  // registry link, older threads
};

/// Memory that bypasses zsheap's interposed allocator (defined in
/// obs/heap.cpp, which knows whether it interposes).
void* raw_alloc(std::size_t size) noexcept;

/// The calling thread's state, registering it on first use. nullptr
/// while the thread is mid-registration (the stack-bounds query allocates,
/// and that allocation reaches the heap hook) or out of memory.
ThreadState* thread_state() noexcept;
/// The calling thread's state if registered, else nullptr: one
/// thread_local read, safe in a signal handler.
ThreadState* current() noexcept;
/// Every registered thread, newest first. Entries are never removed.
ThreadState* threads() noexcept;

/// Gives every registered thread (and every thread registering later)
/// an empty ring of at least `capacity` samples on `channel`, and
/// starts pushing spans. Serialized against registration.
void arm(Channel channel, std::size_t capacity);
/// Undoes arm(); rings stay allocated for the next session.
void disarm(Channel channel);
/// One relaxed load: is any channel armed (should spans be pushed)?
bool spans_wanted() noexcept;
inline Ring* ring(const ThreadState& ts, Channel channel) noexcept {
  return ts.rings[channel].load(std::memory_order_acquire);
}

/// A pointer to `name` that stays valid forever.
const char* intern(std::string_view name);
void push_span(ThreadState& ts, const char* interned_name) noexcept;
/// Pops the calling thread's innermost span.
void pop_span() noexcept;
/// Copies the span stack, root first, into `out`; returns its depth.
std::uint32_t copy_spans(const ThreadState& ts, const char** out) noexcept;
/// The innermost open span, or nullptr (inline: zsheap reads it on
/// every allocation).
inline const char* innermost_span(const ThreadState& ts) noexcept {
  std::uint32_t depth = ts.span_depth.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_acquire);
  if (depth == 0) return nullptr;
  if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
  return ts.span_stack[depth - 1];
}

/// Follows the frame-pointer chain from `fp`, appending return
/// addresses to pcs[n..kMaxFrames); returns the new count. Every frame
/// must lie inside the thread's stack segment, be aligned, and move up
/// the stack, so a corrupt chain ends the walk instead of faulting.
std::uint32_t walk(std::uintptr_t fp, const ThreadState& ts,
                   std::uintptr_t* pcs, std::uint32_t n) noexcept;

/// Raw stacks folded before symbolization: [n_spans, spans..., pcs...].
using StackKey = std::vector<std::uintptr_t>;
struct Weight {
  std::uint64_t weight = 0;  // summed sample weights
  std::uint64_t count = 0;   // samples
};
using Aggregate = std::map<StackKey, Weight>;

/// Drains every thread's `channel` ring into `aggregate` (consumer).
void drain(Channel channel, Aggregate& aggregate);

/// One symbolized stack of an Aggregate.
struct Stack {
  std::vector<std::string> spans;   // root first
  std::vector<std::string> frames;  // leaf first
  Weight weight;
  /// "span;...;frame;...;leaf" root first, or "(unknown)" when empty.
  std::string folded() const;
};
/// Symbolizes (dynamic symbols + demangling) every stack of `aggregate`.
std::vector<Stack> symbolize(const Aggregate& aggregate);

}  // namespace zombiescope::obs::stacksample
