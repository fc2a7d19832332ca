// obs/prof.hpp — zsprof, the in-process sampling profiler.
//
// A dependency-free CPU profiler built on POSIX timer_create + SIGPROF
// (default ~97 Hz, a prime rate so sampling does not beat against
// periodic work). The signal handler walks the frame-pointer chain of
// the interrupted thread into a lock-free per-thread sample ring and
// copies the thread's active zsobs span stack alongside it, so every
// sample is *phase-attributed*: output stacks read
// `scenario:longlived2024;detector:interval;trie_lookup`, not just raw
// function frames. A background drain thread aggregates the rings;
// stop() symbolizes (dynamic symbols + demangling, in normal context) and
// returns a ProfileReport that renders as
//
//   * folded-stack text (flamegraph.pl / speedscope ready),
//   * a self/total top-N table,
//   * the `profile` JSON section of the BENCH_*.json snapshots
//     (per-phase CPU shares + top frames).
//
// The thread registry, span stack, frame walk, sample rings and the
// symbolizer are the stack-sampling core zsheap shares
// (obs/stacksample.hpp); this file keeps the timer, the handler and
// the drain thread. Signal-safety rules (see DESIGN.md §7): the handler
// touches only pre-registered thread state — no allocation, no locks,
// no symbol lookup; a thread with no registered state loses the sample to a
// counter. Builds keep frame pointers (-fno-omit-frame-pointer) so the
// walk sees real frames. No session, no cost beyond a span's one
// relaxed load.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace zombiescope::obs {

struct ProfilerOptions {
  /// Samples per second of *process CPU time* (idle costs nothing).
  int rate_hz = 97;
  /// Per-thread sample ring capacity (rounded up to a power of two).
  std::size_t ring_capacity = 4096;
};

/// One symbolized frame of the top-N table.
struct ProfiledFrame {
  std::string symbol;
  std::uint64_t self = 0;   // samples with this frame innermost
  std::uint64_t total = 0;  // samples with this frame anywhere on stack
};

/// Aggregated result of one profiling session.
struct ProfileReport {
  bool valid = false;  // false: profiler never ran
  int rate_hz = 0;
  double duration_s = 0.0;  // wall time between start() and stop()
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;  // ring overflow + unregistered-thread hits

  /// Folded stacks: "span;span;frame;frame" (root first) -> samples.
  std::map<std::string, std::uint64_t> folded;
  /// Innermost active span ("(no span)" when none) -> samples.
  std::map<std::string, std::uint64_t> phase_samples;
  /// Symbol -> self/total sample counts, sorted by self descending.
  std::vector<ProfiledFrame> top_frames;

  /// Flamegraph-ready folded text: one "stack count" line per stack.
  std::string to_folded() const;
  /// Human-readable per-phase shares + top-N self/total table.
  std::string top_report(std::size_t n = 20) const;
  /// The "profile" section of BENCH_*.json: schema zsprof-v1 with
  /// per-phase CPU shares and the top frames.
  std::string to_json(std::size_t top_n = 20) const;
};

/// Parses folded text back to stack -> count (the to_folded inverse;
/// lines that do not end in " <count>" are skipped).
std::map<std::string, std::uint64_t> parse_folded(std::string_view text);

/// The process-wide sampling profiler. SIGPROF is a process-global
/// resource, so there is exactly one; start()/stop() are not
/// re-entrant but may be called from any thread.
class Profiler {
 public:
  /// The singleton every entry point (CLI --profile-out, the HTTP
  /// /profile endpoint, bench harness) shares.
  static Profiler& global();

  /// Installs the SIGPROF handler and arms the CPU-time timer.
  /// Returns false if already running or the timer cannot be created.
  bool start(const ProfilerOptions& options = {});

  /// Disarms the timer, drains every ring, symbolizes, and returns the
  /// aggregated report. Returns an invalid report when not running.
  ProfileReport stop();

  bool running() const;

 private:
  Profiler() = default;
};

/// The --profile-out CLI helper: starts a global profiling session on
/// construction (when `path` is non-empty), and on destruction stops
/// it, writes the folded stacks to `path`, and prints the top-frames
/// summary to stderr. Does nothing at all for an empty path.
class ScopedProfileSession {
 public:
  explicit ScopedProfileSession(std::string path);
  ~ScopedProfileSession();
  ScopedProfileSession(const ScopedProfileSession&) = delete;
  ScopedProfileSession& operator=(const ScopedProfileSession&) = delete;

  bool active() const { return active_; }

 private:
  std::string path_;
  bool active_ = false;
};

}  // namespace zombiescope::obs
