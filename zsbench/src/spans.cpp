#include "spans.hpp"

#include <chrono>
#include <stdexcept>

namespace zsbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int SpanLog::begin(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), now_ns(), 0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::end(int index) {
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("zsbench: spans must close in LIFO order");
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const auto& span : spans_) {
    if (span.parent >= 0 && span.end_ns != 0)
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    if (span.end_ns == 0) continue;
    const std::uint64_t duration = span.end_ns - span.start_ns;
    SpanTotals& totals = out[span.name];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration > child_ns[i] ? duration - child_ns[i] : 0;
  }
  return out;
}

std::uint64_t SpanLog::self_ns(int index) const {
  const auto& span = spans_.at(static_cast<std::size_t>(index));
  std::uint64_t children = 0;
  for (const auto& other : spans_) {
    if (other.parent == index && other.end_ns != 0)
      children += other.end_ns - other.start_ns;
  }
  const std::uint64_t duration = span.end_ns - span.start_ns;
  return duration > children ? duration - children : 0;
}

}  // namespace zsbench
