// netbase/mpsc_ring.hpp — the bounded lock-free multi-producer,
// single-consumer ring under the event journal, the causal tracer and
// the live shard queues.
//
// Dmitry Vyukov's sequence-number ring: each slot carries an atomic
// sequence that hands the slot back and forth between the producers
// and the consumer, so a push or a pop is two atomic operations on the
// slot plus one on a cursor, and never allocates. try_push fails when
// the ring is full (the caller drops and counts, or waits); try_pop
// fails when it is empty. There must be one consumer at a time:
// owners with several would-be consumers serialise them (the journal
// and the tracer drain under a mutex).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace zombiescope::netbase {

template <typename T>
class MpscRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit MpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) slots_[i].seq.store(i, std::memory_order_relaxed);
  }
  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Any thread; false when the ring is full, and `item` is then left
  /// as it was.
  template <typename U>
  bool try_push(U&& item) {
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & (capacity_ - 1)];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          slot.value = std::forward<U>(item);
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// The consumer; false when the ring is empty. A slot of a type that
  /// owns resources is reset after the move, so it frees them while it
  /// idles.
  bool try_pop(T& out) {
    const std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Slot& slot = slots_[pos & (capacity_ - 1)];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1) < 0) return false;
    out = std::move(slot.value);
    if constexpr (!std::is_trivially_copyable_v<T>) slot.value = T{};
    slot.seq.store(pos + capacity_, std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Approximate fill (racy by nature; for gauges and stats).
  std::size_t approx_size() const {
    const std::uint64_t enq = enqueue_pos_.load(std::memory_order_relaxed);
    const std::uint64_t deq = dequeue_pos_.load(std::memory_order_relaxed);
    return enq > deq ? static_cast<std::size_t>(enq - deq) : 0;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::size_t capacity_ = 0;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
};

}  // namespace zombiescope::netbase
