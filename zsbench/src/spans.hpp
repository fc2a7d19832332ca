// zsbench/src/spans.hpp — the benchmark's own in-memory span log.
//
// Traced runs wrap every call into a public zombiescope function in a
// span (name, start, end, parent), recorded from the benchmark's own
// code only: nothing inside the library is instrumented. A span's self
// time is its duration minus the time its direct children cover; the
// root pass span's self time is the unattributed share of a workload.
// Spans are opened and closed on one thread, in LIFO order.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zsbench {

std::uint64_t now_ns();

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  // index into the log, -1 for a root
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class SpanLog {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int begin(std::string name);
  void end(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Per-name count, total duration and self time (duration minus
  /// direct children) over every closed span.
  std::map<std::string, SpanTotals> totals() const;
  /// Self time of one span.
  std::uint64_t self_ns(int index) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log makes it free (untraced runs).
class Span {
 public:
  Span(SpanLog* log, std::string name)
      : log_(log), index_(log != nullptr ? log->begin(std::move(name)) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace zsbench
