// The benchmark's own tests: seeded inputs are reproducible, the
// open-loop generator keeps its schedule behind a slow sink, and span
// self time excludes children.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "openloop.hpp"
#include "spans.hpp"
#include "subscribers.hpp"
#include "sysstat.hpp"

namespace zsbench {
namespace {

using namespace std::chrono_literals;

TEST(ZsbenchInputs, SameSeedGivesByteIdenticalArchive) {
  const Archive a = generate_archive(7);
  const Archive b = generate_archive(7);
  const Archive c = generate_archive(8);
  ASSERT_FALSE(a.updates_mrt.empty());
  EXPECT_EQ(a.updates_mrt, b.updates_mrt);
  EXPECT_EQ(a.ribs_mrt, b.ribs_mrt);
  EXPECT_EQ(a.wire_peers, b.wire_peers);
  EXPECT_NE(a.updates_mrt, c.updates_mrt);
  EXPECT_EQ(a.pinned_pairs, 0u);
  EXPECT_FALSE(a.wire_peers.empty());
  EXPECT_LE(a.wire_peers.size(), kMaxWireSessions);
}

TEST(ZsbenchOpenLoop, SlowSinkDoesNotShiftTheSchedule) {
  // 20 items due every 2 ms; the sink stalls 15 ms on item 3.
  std::vector<std::chrono::nanoseconds> offsets;
  for (int i = 0; i < 20; ++i) offsets.push_back(i * 2ms);
  const auto start = SteadyClock::now() + 1ms;
  std::vector<SteadyClock::time_point> dues;
  const auto late = run_open_loop(start, offsets, [&](std::size_t i, SteadyClock::time_point due) {
    dues.push_back(due);
    if (i == 3) std::this_thread::sleep_for(15ms);
  });
  const auto finished = SteadyClock::now();
  ASSERT_EQ(dues.size(), offsets.size());
  // Due instants are the schedule's, stall or not.
  for (std::size_t i = 0; i < dues.size(); ++i) EXPECT_EQ(dues[i], start + offsets[i]);
  // The items behind the stall are late by (roughly) what is left of it...
  EXPECT_GE(late[4], 12'000'000u);
  // ...and the generator catches up instead of pushing the schedule back.
  EXPECT_LT(late.back(), 2'000'000u);
  EXPECT_LT(finished - start, offsets.back() + 10ms);
}

TEST(ZsbenchSpans, SelfTimeExcludesChildren) {
  SpanLog log;
  int root = -1;
  {
    Span pass(&log, "pass");
    root = pass.index();
    {
      Span child(&log, "child");
      std::this_thread::sleep_for(20ms);
    }
    std::this_thread::sleep_for(5ms);
  }
  const auto totals = log.totals();
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, root);
  EXPECT_GE(totals.at("child").total_ns, 20'000'000u);
  EXPECT_GE(totals.at("pass").self_ns, 5'000'000u);
  EXPECT_LT(totals.at("pass").self_ns, 20'000'000u);
  EXPECT_EQ(totals.at("pass").self_ns, log.self_ns(root));
  EXPECT_EQ(totals.at("pass").total_ns,
            totals.at("pass").self_ns + totals.at("child").total_ns);
}

TEST(ZsbenchFrameScanner, CountsFramesAcrossSplitsAndChunkLines) {
  FrameScanner scan;
  const std::string stream =
      "1a\r\nevent: emerge\ndata: {\"ingest_ns\":1000}\nid: 1\n\n\r\n"
      ": missed 2 events\n\nevent: die\ndata: {\"type\":\"die\"}\nid: 4\n\n";
  for (std::size_t i = 0; i < stream.size(); i += 7)
    scan.feed(stream.data() + i, std::min<std::size_t>(7, stream.size() - i), 3'000'000);
  EXPECT_EQ(scan.frames(), 2u);
  EXPECT_EQ(scan.missed(), 2u);
  ASSERT_EQ(scan.latency_ms().size(), 1u);
  EXPECT_DOUBLE_EQ(scan.latency_ms()[0], 2.999);
}

TEST(ZsbenchStats, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

}  // namespace
}  // namespace zsbench
