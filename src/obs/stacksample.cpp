#include "obs/stacksample.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <unordered_map>
#include <unordered_set>

namespace zombiescope::obs::stacksample {

namespace {

// Registration and arm()/disarm() take the mutex; readers walk the
// list lock-free (entries are prepended with a release store and never
// unlinked).
std::mutex g_registry_mutex;
std::atomic<ThreadState*> g_threads{nullptr};
std::size_t g_capacity[kChannels] = {};  // nonzero while armed
constinit std::atomic<unsigned> g_armed{0};  // bit per armed channel

// Plain POD thread_locals, so first access never allocates.
thread_local ThreadState* t_state = nullptr;
thread_local bool t_registering = false;

Ring* new_ring(std::size_t capacity) {
  std::size_t cap = 64;
  while (cap < capacity) cap <<= 1;
  void* ring_mem = raw_alloc(sizeof(Ring));
  void* slot_mem = raw_alloc(cap * sizeof(Sample));
  // Out of memory: no ring, so the thread's samples count as lost.
  if (ring_mem == nullptr || slot_mem == nullptr) return nullptr;
  auto* ring = new (ring_mem) Ring();
  ring->slots = static_cast<Sample*>(slot_mem);
  ring->mask = cap - 1;
  return ring;
}

// Called with g_registry_mutex held: a fresh ring, or the old one
// emptied of a previous session's stragglers.
void give_ring(ThreadState& ts, Channel channel) {
  Ring* ring = ts.rings[channel].load(std::memory_order_relaxed);
  if (ring == nullptr) {
    ts.rings[channel].store(new_ring(g_capacity[channel]), std::memory_order_release);
  } else {
    ring->tail.store(ring->head.load(std::memory_order_acquire),
                     std::memory_order_release);
  }
}

void stack_bounds(std::uintptr_t& lo, std::uintptr_t& hi) {
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* addr = nullptr;
  std::size_t size = 0;
  if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
    lo = reinterpret_cast<std::uintptr_t>(addr);
    hi = lo + size;
  }
  pthread_attr_destroy(&attr);
}

std::string symbol_of(std::uintptr_t pc,
                      std::unordered_map<std::uintptr_t, std::string>& cache) {
  const auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  std::string name;
  Dl_info info{};
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 && info.dli_sname != nullptr) {
    int status = 1;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
  } else {
    // No symbol (static function, stripped object): module+offset,
    // resolvable offline with addr2line.
    const char* module = info.dli_fname != nullptr ? info.dli_fname : "?";
    if (const char* slash = std::strrchr(module, '/'); slash != nullptr)
      module = slash + 1;
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(info.dli_fbase);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s+0x%" PRIxPTR, module,
                  base != 0 && pc >= base ? pc - base : pc);
    name = buf;
  }
  // Frames are joined with ';' in folded output; scrub the separator.
  for (char& c : name) {
    if (c == ';') c = ':';
    if (c == '\n' || c == '\r') c = ' ';
  }
  cache.emplace(pc, name);
  return name;
}

}  // namespace

ThreadState* thread_state() noexcept {
  if (t_state != nullptr) return t_state;
  if (t_registering) return nullptr;
  void* mem = raw_alloc(sizeof(ThreadState));
  if (mem == nullptr) return nullptr;
  t_registering = true;
  auto* ts = new (mem) ThreadState();
  stack_bounds(ts->stack_lo, ts->stack_hi);
  {
    std::lock_guard lock(g_registry_mutex);
    for (unsigned c = 0; c < kChannels; ++c)
      if (g_capacity[c] != 0) give_ring(*ts, static_cast<Channel>(c));
    ts->next = g_threads.load(std::memory_order_relaxed);
    g_threads.store(ts, std::memory_order_release);
  }
  t_registering = false;
  t_state = ts;
  return ts;
}

ThreadState* current() noexcept { return t_state; }

ThreadState* threads() noexcept { return g_threads.load(std::memory_order_acquire); }

void arm(Channel channel, std::size_t capacity) {
  std::lock_guard lock(g_registry_mutex);
  g_capacity[channel] = capacity == 0 ? 1 : capacity;
  for (ThreadState* ts = threads(); ts != nullptr; ts = ts->next) give_ring(*ts, channel);
  g_armed.fetch_or(1u << channel, std::memory_order_relaxed);
}

void disarm(Channel channel) {
  std::lock_guard lock(g_registry_mutex);
  g_capacity[channel] = 0;
  g_armed.fetch_and(~(1u << channel), std::memory_order_relaxed);
}

bool spans_wanted() noexcept { return g_armed.load(std::memory_order_relaxed) != 0; }

const char* intern(std::string_view name) {
  static std::mutex mutex;
  static auto* names = new std::unordered_set<std::string>();
  std::lock_guard lock(mutex);
  return names->emplace(name).first->c_str();
}

void push_span(ThreadState& ts, const char* interned_name) noexcept {
  const std::uint32_t depth = ts.span_depth.load(std::memory_order_relaxed);
  if (depth < kMaxSpanDepth) ts.span_stack[depth] = interned_name;
  // The name store must be visible before the depth covers it; a
  // signal fence suffices because every reader runs on this thread.
  std::atomic_signal_fence(std::memory_order_release);
  ts.span_depth.store(depth + 1, std::memory_order_relaxed);
}

void pop_span() noexcept {
  ThreadState* ts = t_state;
  if (ts == nullptr) return;
  const std::uint32_t depth = ts->span_depth.load(std::memory_order_relaxed);
  if (depth > 0) ts->span_depth.store(depth - 1, std::memory_order_relaxed);
}

ZS_NO_SANITIZE  // called from the SIGPROF handler
std::uint32_t copy_spans(const ThreadState& ts, const char** out) noexcept {
  std::uint32_t depth = ts.span_depth.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_acquire);
  if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
  for (std::uint32_t i = 0; i < depth; ++i) out[i] = ts.span_stack[i];
  return depth;
}

ZS_NO_SANITIZE
std::uint32_t walk(std::uintptr_t fp, const ThreadState& ts, std::uintptr_t* pcs,
                   std::uint32_t n) noexcept {
  const std::uintptr_t lo = ts.stack_lo;
  const std::uintptr_t hi = ts.stack_hi;
  while (n < kMaxFrames && fp >= lo && hi >= 2 * sizeof(std::uintptr_t) &&
         fp <= hi - 2 * sizeof(std::uintptr_t) &&
         (fp & (sizeof(std::uintptr_t) - 1)) == 0) {
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t ret = frame[1];
    const std::uintptr_t next = frame[0];
    if (ret < 0x1000) break;  // not a plausible return address
    pcs[n++] = ret;
    if (next <= fp) break;  // frames must move up the stack
    fp = next;
  }
  return n;
}

void drain(Channel channel, Aggregate& aggregate) {
  StackKey key;
  for (ThreadState* ts = threads(); ts != nullptr; ts = ts->next) {
    Ring* r = ring(*ts, channel);
    if (r == nullptr) continue;
    std::uint64_t tail = r->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    while (tail != head) {
      const Sample& sample = r->slots[tail & r->mask];
      key.clear();
      key.push_back(sample.n_spans);
      for (std::uint32_t i = 0; i < sample.n_spans; ++i)
        key.push_back(reinterpret_cast<std::uintptr_t>(sample.spans[i]));
      key.insert(key.end(), sample.pcs, sample.pcs + sample.n_pcs);
      Weight& cell = aggregate[key];
      cell.weight += sample.weight;
      cell.count += 1;
      ++tail;
      r->tail.store(tail, std::memory_order_release);
    }
  }
}

std::string Stack::folded() const {
  std::string out;
  for (const std::string& span : spans) {
    if (!out.empty()) out += ';';
    out += span;
  }
  for (std::size_t i = frames.size(); i-- > 0;) {
    if (!out.empty()) out += ';';
    out += frames[i];
  }
  return out.empty() ? "(unknown)" : out;
}

std::vector<Stack> symbolize(const Aggregate& aggregate) {
  std::unordered_map<std::uintptr_t, std::string> cache;
  std::vector<Stack> out;
  out.reserve(aggregate.size());
  for (const auto& [key, weight] : aggregate) {
    Stack stack;
    const std::size_t n_spans = static_cast<std::size_t>(key[0]);
    for (std::size_t i = 0; i < n_spans; ++i)
      stack.spans.emplace_back(reinterpret_cast<const char*>(key[1 + i]));
    for (std::size_t i = 1 + n_spans; i < key.size(); ++i)
      stack.frames.push_back(symbol_of(key[i], cache));
    stack.weight = weight;
    out.push_back(std::move(stack));
  }
  return out;
}

}  // namespace zombiescope::obs::stacksample
