// obs/lathist.hpp — zslat, mergeable log-bucketed latency histograms.
//
// An HDR-style histogram for nanosecond latencies: values are bucketed
// by (octave, sub-bucket) where each octave [2^k, 2^(k+1)) is split
// into kSubBuckets linear sub-buckets, so the relative quantization
// error is bounded by 1/kSubBuckets (3.125% with the default 32)
// across the whole 64-bit range — no a-priori bound configuration, no
// clipping, unlike obs::Histogram's fixed bucket edges. Values below
// kSubBuckets get exact unit-width buckets.
//
// Concurrency model: record() is three relaxed fetch_adds plus two
// bounded CAS loops (min/max) — lock-free, wait-free in practice, safe
// from any thread. The intended discipline is owner-mostly: each stage
// of a pipeline records from the one thread that executes that stage,
// so the atomics never contend; readers take a snapshot() (a plain
// relaxed copy of the bucket array) and do all quantile math on the
// immutable LatSnapshot. Snapshots merge bucket-wise, which is what
// makes per-shard histograms aggregate into service-wide quantiles
// without a sort, and diff_since() turns two cumulative snapshots into
// an interval view (how per-config bench sections are produced).
//
// LatRegistry::global() names histograms the way obs::Registry names
// metrics: one leaked instance per name, so handles never dangle even
// when the component that registered them is torn down. The registry
// renders everything as JSON (`/latency`, the BENCH_*.json `latency`
// section) or folded text (`/latency?format=folded`).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace zombiescope::obs {

/// Bucket geometry, shared by the live histogram and its snapshots.
/// 2^kSubBits sub-buckets per octave bounds the relative quantization
/// error of any reported quantile by 2^-kSubBits.
inline constexpr unsigned kLatSubBits = 5;
inline constexpr std::uint64_t kLatSubBuckets = 1ull << kLatSubBits;
/// Octaves above the exact range: values in [kLatSubBuckets, 2^63).
/// 64 - kSubBits octaves of kSubBuckets buckets each, plus the exact
/// unit buckets for values < kLatSubBuckets at the front.
inline constexpr std::size_t kLatBucketCount =
    kLatSubBuckets + (64 - kLatSubBits) * kLatSubBuckets;

/// Index of the bucket holding `v`. Exact for v < kLatSubBuckets;
/// above that, octave = msb(v), sub = next kSubBits bits.
constexpr std::size_t lat_bucket_index(std::uint64_t v) noexcept {
  if (v < kLatSubBuckets) return static_cast<std::size_t>(v);
  unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
  std::uint64_t sub = (v >> (msb - kLatSubBits)) & (kLatSubBuckets - 1);
  // Octave kLatSubBits is the first log-spaced one; it lands right
  // after the kLatSubBuckets exact buckets.
  return static_cast<std::size_t>((msb - kLatSubBits + 1) * kLatSubBuckets +
                                  sub);
}

/// Inclusive upper edge of bucket `i` (the largest value that maps to
/// it). Used for quantile interpolation and folded output.
constexpr std::uint64_t lat_bucket_upper(std::size_t i) noexcept {
  if (i < kLatSubBuckets) return static_cast<std::uint64_t>(i);
  std::size_t octave = i / kLatSubBuckets - 1;  // 0-based log octave
  std::uint64_t sub = i % kLatSubBuckets;
  unsigned msb = static_cast<unsigned>(octave) + kLatSubBits;
  std::uint64_t base = 1ull << msb;
  std::uint64_t width = 1ull << (msb - kLatSubBits);
  return base + (sub + 1) * width - 1;
}

/// Inclusive lower edge of bucket `i`.
constexpr std::uint64_t lat_bucket_lower(std::size_t i) noexcept {
  return i == 0 ? 0 : lat_bucket_upper(i - 1) + 1;
}

/// Immutable copy of a histogram's state. All quantile / merge / diff
/// math happens here, on plain (non-atomic) data.
struct LatSnapshot {
  std::vector<std::uint64_t> counts;  // kLatBucketCount entries (or empty)
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t min_ns = 0;  // 0 when count == 0
  std::uint64_t max_ns = 0;

  bool empty() const noexcept { return count == 0; }
  double mean_ns() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum_ns) /
                                  static_cast<double>(count);
  }

  /// Quantile in nanoseconds, q in [0,1]; linear interpolation within
  /// the target bucket, clamped to the observed [min,max].
  double quantile_ns(double q) const noexcept;

  /// Bucket-wise sum; merging disjoint recorder snapshots is exact.
  void merge(const LatSnapshot& other);

  /// This snapshot minus an earlier snapshot of the *same* histogram:
  /// the interval view between the two capture points.
  LatSnapshot diff_since(const LatSnapshot& earlier) const;

  /// {"count":N,"sum_ns":N,"min_ns":N,"max_ns":N,"mean_ns":F,
  ///  "p50_ns":F,"p95_ns":F,"p99_ns":F}
  std::string to_json() const;
};

/// The live, recordable histogram. Fixed-size atomic bucket array
/// (~15 KB); record() never allocates, never locks.
class LatHist {
 public:
  LatHist() = default;
  LatHist(const LatHist&) = delete;
  LatHist& operator=(const LatHist&) = delete;

  /// Record one latency observation. Lock-free; relaxed atomics.
  void record(std::uint64_t ns) noexcept {
    counts_[lat_bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    update_min(ns);
    update_max(ns);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// Relaxed copy of the full state. Concurrent record()s may be
  /// partially visible (count vs buckets off by in-flight writes) —
  /// fine for monitoring; tests quiesce writers first.
  LatSnapshot snapshot() const;

  /// Zero every cell. Only safe when no recorder is active.
  void reset() noexcept;

 private:
  void update_min(std::uint64_t ns) noexcept {
    std::uint64_t cur = min_ns_.load(std::memory_order_relaxed);
    while (ns < cur && !min_ns_.compare_exchange_weak(
                           cur, ns, std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t ns) noexcept {
    std::uint64_t cur = max_ns_.load(std::memory_order_relaxed);
    while (ns > cur && !max_ns_.compare_exchange_weak(
                           cur, ns, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> counts_[kLatBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> min_ns_{~0ull};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Process-wide name → histogram map, mirroring obs::Registry: get()
/// returns the same leaked instance for the same name forever, so a
/// LatHist* captured by a pipeline stage outlives any service
/// restart.
class LatRegistry {
 public:
  static LatRegistry& global();

  /// Find-or-create. The returned reference is valid for the process
  /// lifetime.
  LatHist& get(std::string_view name);

  /// Names in sorted order with their snapshots.
  std::vector<std::pair<std::string, LatSnapshot>> snapshot_all() const;

  /// {"<name>":{...LatSnapshot.to_json()...},...} — empty histograms
  /// are skipped; "{}" when nothing recorded.
  std::string to_json() const;

  /// Folded text: one `name;le_<upper>ns count` line per non-empty
  /// bucket, plus a `name;count total` summary line.
  std::string to_folded() const;

  /// Zero every registered histogram (bench/test isolation).
  void reset_all();

 private:
  LatRegistry() = default;
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
};

}  // namespace zombiescope::obs
