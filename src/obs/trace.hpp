// obs/trace.hpp — phase/span tracing.
//
// A ScopedSpan is an RAII timer: construction stamps a steady-clock
// start, destruction records a completed SpanRecord into the owning
// Tracer's bounded ring buffer. Spans nest — a thread-local stack
// links each span to the one open above it, so a scenario run yields a
// parent/child phase tree (topology build → simulate → collect →
// detect → analyze) that exporters can turn into per-stage wall-time
// attribution. When the Tracer is disabled, constructing a ScopedSpan
// does not even read the clock — tracing is zero-overhead when idle.
//
// The ring buffer is fixed-size: when full, the oldest completed span
// is overwritten (total_recorded() keeps the true count), so a
// long-running process cannot grow without bound.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace zombiescope::obs {

/// One completed span. Timestamps are steady-clock nanoseconds
/// relative to the tracer's epoch (its construction or last reset).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root (no enclosing span)
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;

  std::int64_t end_ns() const { return start_ns + duration_ns; }
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 4096);

  /// The process-wide tracer the instrumented modules report to.
  static Tracer& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  /// Resizes the ring buffer, dropping buffered spans.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Completed spans still in the buffer, oldest first.
  std::vector<SpanRecord> snapshot() const;
  /// All spans ever recorded, including ones overwritten by the ring.
  std::uint64_t total_recorded() const { return total_.load(std::memory_order_relaxed); }
  /// Spans the bounded ring could not keep (overwritten or refused);
  /// nonzero means snapshot() is silently missing history.
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Binds a registry counter (zs_obs_spans_dropped_total) bumped on
  /// every drop, so truncation is visible in metric snapshots too.
  /// global() binds automatically.
  void set_dropped_counter(Counter counter) { m_dropped_ = counter; }

  /// Drops buffered spans and restarts the time epoch.
  void reset();

  /// Nanoseconds since the tracer's epoch.
  std::int64_t now_ns() const;

  /// Used by ScopedSpan; appends a completed span to the ring.
  void record(SpanRecord record);

 private:
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> dropped_{0};
  Counter m_dropped_;
  std::atomic<std::uint64_t> next_id_{1};
  std::int64_t epoch_ns_ = 0;

  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;
  std::size_t capacity_ = 4096;
  std::size_t head_ = 0;  // next slot to overwrite once full

  friend class ScopedSpan;
};

/// RAII phase timer. Records into the given tracer (the global one by
/// default) on destruction; a no-op if the tracer is disabled at
/// construction time.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, Tracer& tracer = Tracer::global());
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_ = nullptr;  // null when tracing was disabled
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
  // True when this span is on its thread's sampler span stack (pushed
  // only while a zsprof or zsheap session is active).
  bool sampled_ = false;
};

}  // namespace zombiescope::obs
