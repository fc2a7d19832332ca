// zsbench/src/openloop.hpp — the open-loop load generator.
//
// Item i is due at start + offsets[i], whatever the system does: the
// generator sleeps until an item is due, hands it to the sink with its
// due instant, and moves on. It never waits for the system, so a slow
// sink makes the following items late but never moves their due
// instants; latency measured from the due instant therefore counts the
// wait a stall imposes on everything behind it. How late the generator
// itself ran is returned per item.

#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "spans.hpp"

namespace zsbench {

using SteadyClock = std::chrono::steady_clock;

/// Calls sink(i, due) for every item in order; returns each item's
/// lateness in ns (hand-off instant minus due instant). Sleeps are
/// recorded as "gen.wait" spans when `spans` is set.
template <class Sink>
std::vector<std::uint64_t> run_open_loop(SteadyClock::time_point start,
                                         std::span<const std::chrono::nanoseconds> offsets,
                                         Sink&& sink, SpanLog* spans = nullptr) {
  std::vector<std::uint64_t> late_ns(offsets.size(), 0);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const SteadyClock::time_point due = start + offsets[i];
    if (SteadyClock::now() < due) {
      Span wait(spans, "gen.wait");
      std::this_thread::sleep_until(due);
    }
    const SteadyClock::time_point handed = SteadyClock::now();
    late_ns[i] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(handed - due).count());
    sink(i, due);
  }
  return late_ns;
}

}  // namespace zsbench
