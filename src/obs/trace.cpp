#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>

#include "obs/stacksample.hpp"

namespace zombiescope::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The innermost open span of this thread; spans started while another
// is open become its children.
thread_local std::uint64_t t_current_span = 0;

}  // namespace

Tracer::Tracer(std::size_t capacity) : epoch_ns_(steady_ns()), capacity_(capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

Tracer& Tracer::global() {
  static Tracer* instance = [] {
    auto* tracer = new Tracer();
    tracer->set_dropped_counter(
        Registry::global().counter("zs_obs_spans_dropped_total"));
    return tracer;
  }();
  return *instance;
}

void Tracer::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity;
  ring_.clear();
  head_ = 0;
}

std::size_t Tracer::capacity() const {
  std::lock_guard lock(mutex_);
  return capacity_;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // head_ points at the oldest entry once the ring has wrapped.
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  }
  return out;
}

void Tracer::reset() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  head_ = 0;
  total_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ns_ = steady_ns();
}

std::int64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

void Tracer::record(SpanRecord record) {
  std::lock_guard lock(mutex_);
  total_.fetch_add(1, std::memory_order_relaxed);
  if (capacity_ == 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    m_dropped_.inc();
    return;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    return;
  }
  // Overwriting the oldest buffered span loses it from snapshots.
  dropped_.fetch_add(1, std::memory_order_relaxed);
  m_dropped_.inc();
  ring_[head_] = std::move(record);
  head_ = (head_ + 1) % capacity_;
}

ScopedSpan::ScopedSpan(std::string_view name, Tracer& tracer) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  name_ = name;
  id_ = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  t_current_span = id_;
  // While a zsprof or zsheap session runs, publish this span on the
  // thread's signal-readable span stack, so CPU samples are
  // phase-attributed and the allocator hook can credit bytes to it.
  // With no session this costs one thread_local read and one relaxed
  // load. Registration is unconditional so a session started mid-run
  // (GET /profile) can sample threads that are already inside their
  // spans — those samples are frame-attributed but span-less until the
  // thread opens its next span.
  if (stacksample::ThreadState* ts = stacksample::thread_state();
      ts != nullptr && stacksample::spans_wanted()) {
    stacksample::push_span(*ts, stacksample::intern(name_));
    sampled_ = true;
  }
  start_ns_ = tracer.now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  if (sampled_) stacksample::pop_span();
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.name = std::move(name_);
  record.start_ns = start_ns_;
  record.duration_ns = tracer_->now_ns() - start_ns_;
  t_current_span = parent_;
  tracer_->record(std::move(record));
}

}  // namespace zombiescope::obs
