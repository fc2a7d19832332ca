#include "obs/prof.hpp"

#include <errno.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <stop_token>
#include <thread>
#include <unordered_set>

#include "netbase/json.hpp"
#include "obs/stacksample.hpp"

namespace zombiescope::obs {

using netbase::json_escape;

namespace {

std::string format_share(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Report rendering.

std::string ProfileReport::to_folded() const {
  std::string out;
  for (const auto& [stack, count] : folded) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::map<std::string, std::uint64_t> parse_folded(std::string_view text) {
  std::map<std::string, std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space + 1 >= line.size()) continue;
    std::uint64_t count = 0;
    bool numeric = true;
    for (char c : line.substr(space + 1)) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      count = count * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (!numeric) continue;
    out[std::string(line.substr(0, space))] += count;
  }
  return out;
}

std::string ProfileReport::top_report(std::size_t n) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "== zsprof: %" PRIu64 " sample(s) @ %d Hz over %.2f s (%" PRIu64
                " dropped)\n",
                samples, rate_hz, duration_s, dropped);
  out += buf;
  if (!phase_samples.empty()) {
    out += "== per-phase CPU shares\n";
    std::vector<std::pair<std::string, std::uint64_t>> phases(
        phase_samples.begin(), phase_samples.end());
    std::sort(phases.begin(), phases.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [name, count] : phases) {
      const double share =
          samples == 0 ? 0.0
                       : static_cast<double>(count) / static_cast<double>(samples);
      std::snprintf(buf, sizeof(buf), "  %6.2f%%  %8" PRIu64 "  %s\n",
                    100.0 * share, count, name.c_str());
      out += buf;
    }
  }
  if (!top_frames.empty()) {
    out += "== top frames (self / total samples)\n";
    std::size_t shown = 0;
    for (const auto& frame : top_frames) {
      if (++shown > n) break;
      const double share = samples == 0 ? 0.0
                                        : static_cast<double>(frame.self) /
                                              static_cast<double>(samples);
      std::snprintf(buf, sizeof(buf), "  %6.2f%%  %8" PRIu64 "  %8" PRIu64 "  %s\n",
                    100.0 * share, frame.self, frame.total, frame.symbol.c_str());
      out += buf;
    }
  }
  return out;
}

std::string ProfileReport::to_json(std::size_t top_n) const {
  std::string out = "{\"schema\": \"zsprof-v1\"";
  out += ", \"valid\": " + std::string(valid ? "true" : "false");
  out += ", \"rate_hz\": " + std::to_string(rate_hz);
  out += ", \"duration_s\": " + format_share(duration_s);
  out += ", \"samples\": " + std::to_string(samples);
  out += ", \"dropped\": " + std::to_string(dropped);
  out += ", \"phases\": {";
  bool first = true;
  for (const auto& [name, count] : phase_samples) {
    if (!first) out += ", ";
    first = false;
    const double share =
        samples == 0 ? 0.0
                     : static_cast<double>(count) / static_cast<double>(samples);
    out += "\"" + json_escape(name) + "\": {\"samples\": " +
           std::to_string(count) + ", \"share\": " + format_share(share) + "}";
  }
  out += "}, \"top_frames\": [";
  std::size_t shown = 0;
  for (const auto& frame : top_frames) {
    if (shown >= top_n) break;
    if (shown != 0) out += ", ";
    ++shown;
    out += "{\"symbol\": \"" + json_escape(frame.symbol) +
           "\", \"self\": " + std::to_string(frame.self) +
           ", \"total\": " + std::to_string(frame.total) + "}";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// The signal handler: pc/fp from the interrupted context, then the
// shared span copy and frame walk into the thread's kCpu ring.

namespace {

namespace ss = stacksample;

std::atomic<bool> g_active{false};
std::atomic<std::uint64_t> g_lost{0};  // full ring or unregistered thread

ZS_NO_SANITIZE
void sigprof_handler(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  ss::ThreadState* ts = ss::current();
  ss::Ring* ring = ts == nullptr ? nullptr : ss::ring(*ts, ss::kCpu);
  ss::Sample* sample = ring == nullptr ? nullptr : ring->claim();
  if (sample == nullptr) {
    g_lost.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(context);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const auto* uc = static_cast<const ucontext_t*>(context);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)context;
#endif
  sample->weight = 1;
  sample->n_spans = ss::copy_spans(*ts, sample->spans);
  std::uint32_t n = 0;
  if (pc != 0) sample->pcs[n++] = pc;
  sample->n_pcs = ss::walk(fp, *ts, sample->pcs, n);
  ring->publish();
  errno = saved_errno;
}

// ---------------------------------------------------------------------------
// The consumer side: the drain thread and session control.

struct Session {
  bool running = false;
  ProfilerOptions options;
  std::chrono::steady_clock::time_point started_at;
  timer_t timer{};
  bool timer_valid = false;
  ss::Aggregate aggregate;  // the drain thread's until it is joined
  std::jthread drain_thread;
};

std::mutex g_control_mutex;  // serializes start()/stop()
Session& session() {
  static auto* s = new Session();
  return *s;
}

void drain_loop(std::stop_token stop, ss::Aggregate& aggregate) {
  // The drain thread must never receive SIGPROF itself: its samples
  // would always be unattributable profiler overhead.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);
  std::mutex mutex;
  std::condition_variable_any wake;  // woken only by a stop request
  std::unique_lock lock(mutex);
  while (!stop.stop_requested()) {
    wake.wait_for(lock, stop, std::chrono::milliseconds(100), [] { return false; });
    ss::drain(ss::kCpu, aggregate);
  }
}

ProfileReport build_report(const Session& s, std::uint64_t dropped) {
  ProfileReport report;
  report.valid = true;
  report.rate_hz = s.options.rate_hz;
  report.duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - s.started_at)
          .count();
  report.dropped = dropped;

  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> frames;
  for (const ss::Stack& stack : ss::symbolize(s.aggregate)) {
    const std::uint64_t count = stack.weight.count;
    report.samples += count;
    // Phase attribution: the innermost active span.
    report.phase_samples[stack.spans.empty() ? "(no span)" : stack.spans.back()] +=
        count;
    report.folded[stack.folded()] += count;
    // Self/total accounting per symbol (total counts a stack once even
    // if the symbol recurses).
    if (!stack.frames.empty()) frames[stack.frames[0]].first += count;
    std::unordered_set<std::string_view> seen;
    for (const std::string& symbol : stack.frames) {
      if (seen.insert(symbol).second) frames[symbol].second += count;
    }
  }
  report.top_frames.reserve(frames.size());
  for (auto& [symbol, counts] : frames)
    report.top_frames.push_back({symbol, counts.first, counts.second});
  std::sort(report.top_frames.begin(), report.top_frames.end(),
            [](const ProfiledFrame& a, const ProfiledFrame& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.symbol < b.symbol;
            });
  return report;
}

}  // namespace

Profiler& Profiler::global() {
  static auto* profiler = new Profiler();
  return *profiler;
}

bool Profiler::running() const { return g_active.load(std::memory_order_relaxed); }

bool Profiler::start(const ProfilerOptions& options) {
  std::lock_guard control(g_control_mutex);
  Session& s = session();
  if (s.running || options.rate_hz <= 0) return false;

  s.options = options;
  s.aggregate.clear();
  g_lost.store(0, std::memory_order_relaxed);

  // Register the calling thread, then give every known thread an empty
  // ring (discarding a previous session's stragglers).
  ss::thread_state();
  ss::arm(ss::kCpu, options.ring_capacity);

  struct sigaction action {};
  action.sa_sigaction = &sigprof_handler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  // A CPU-time clock: an idle process generates no samples, which is
  // exactly right for "where did the CPU go". Fall back to the
  // monotonic clock (wall-time sampling) where unsupported.
  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (sigaction(SIGPROF, &action, nullptr) != 0 ||
      (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &s.timer) != 0 &&
       timer_create(CLOCK_MONOTONIC, &sev, &s.timer) != 0)) {
    ss::disarm(ss::kCpu);
    return false;
  }
  s.timer_valid = true;

  g_active.store(true, std::memory_order_relaxed);
  s.started_at = std::chrono::steady_clock::now();
  s.drain_thread = std::jthread(drain_loop, std::ref(s.aggregate));

  const long period_ns = 1'000'000'000L / options.rate_hz;
  itimerspec spec{};
  spec.it_interval.tv_sec = period_ns / 1'000'000'000L;
  spec.it_interval.tv_nsec = period_ns % 1'000'000'000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(s.timer, 0, &spec, nullptr) != 0) {
    g_active.store(false, std::memory_order_relaxed);
    timer_delete(s.timer);
    s.timer_valid = false;
    s.drain_thread = {};  // requests stop and joins
    ss::disarm(ss::kCpu);
    return false;
  }
  s.running = true;
  return true;
}

ProfileReport Profiler::stop() {
  std::lock_guard control(g_control_mutex);
  Session& s = session();
  if (!s.running) return {};

  // Disarm first so no new expirations queue; the handler stays
  // installed (restoring the old disposition could turn one in-flight
  // SIGPROF into process termination).
  if (s.timer_valid) {
    timer_delete(s.timer);
    s.timer_valid = false;
  }
  g_active.store(false, std::memory_order_relaxed);
  s.drain_thread = {};  // requests stop and joins
  ss::drain(ss::kCpu, s.aggregate);
  ss::disarm(ss::kCpu);

  ProfileReport report = build_report(s, g_lost.load(std::memory_order_relaxed));
  s.aggregate.clear();
  s.running = false;
  return report;
}

ScopedProfileSession::ScopedProfileSession(std::string path)
    : path_(std::move(path)) {
  if (path_.empty()) return;
  active_ = Profiler::global().start();
  if (!active_)
    std::fprintf(stderr, "--profile-out ignored: cannot start profiler "
                         "(already running?)\n");
}

ScopedProfileSession::~ScopedProfileSession() {
  if (!active_) return;
  const ProfileReport report = Profiler::global().stop();
  std::FILE* out = std::fopen(path_.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write profile to %s\n", path_.c_str());
  } else {
    const std::string folded = report.to_folded();
    std::fwrite(folded.data(), 1, folded.size(), out);
    std::fclose(out);
  }
  std::fprintf(stderr, "%s", report.top_report(15).c_str());
  std::fprintf(stderr, "profile: %" PRIu64 " sample(s) at %d Hz -> %s\n",
               report.samples, report.rate_hz, path_.c_str());
}

}  // namespace zombiescope::obs
