// Tests for the zombie flight recorder: NDJSON codec round-trips,
// category filtering, ring overflow accounting, file I/O, and
// lock-free emission under concurrent writers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace zombiescope::obs {
namespace {

using netbase::IpAddress;
using netbase::Prefix;

JournalEvent sample_event() {
  JournalEvent ev;
  ev.type = JournalEventType::kZombieDeclared;
  ev.time = 1718020800;
  ev.has_prefix = true;
  ev.prefix = Prefix::parse("2a0d:3dc1:1851::/48");
  ev.has_peer = true;
  ev.peer_asn = 211509;
  ev.peer_address = IpAddress::parse("2001:db8::42");
  ev.a = 5400;
  ev.b = 1718013600;
  ev.c = 1718006400;
  return ev;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "zs_journal_" + name;
}

TEST(ObsJournalCodec, EventTypeNamesRoundTrip) {
  for (auto type : {JournalEventType::kRunMeta, JournalEventType::kAnnounceSeen,
                    JournalEventType::kWithdrawSeen, JournalEventType::kSessionFlush,
                    JournalEventType::kThresholdCrossed, JournalEventType::kZombieDeclared,
                    JournalEventType::kZombieCleared, JournalEventType::kDuplicateSuppressed,
                    JournalEventType::kNoisyPeerExcluded, JournalEventType::kWithdrawalLost,
                    JournalEventType::kWithdrawalDelayed, JournalEventType::kPhantomReannounce,
                    JournalEventType::kResurrectionDetected, JournalEventType::kLifespanClosed,
                    JournalEventType::kCollectorSessionDown, JournalEventType::kCollectorSessionUp,
                    JournalEventType::kFaultWithdrawalSuppressed,
                    JournalEventType::kFaultReceiveStall, JournalEventType::kSimSessionDown,
                    JournalEventType::kSimSessionUp, JournalEventType::kPrefixEvicted,
                    JournalEventType::kLiveZombieEmerged,
                    JournalEventType::kLiveZombieResurrected, JournalEventType::kLiveZombieDied,
                    JournalEventType::kLiveIngestDropped,
                    JournalEventType::kLiveClientEvicted}) {
    const auto name = to_string(type);
    EXPECT_NE(name, "unknown");
    const auto parsed = parse_event_type(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, type);
    EXPECT_NE(category_of(type), 0u) << name;
  }
  EXPECT_FALSE(parse_event_type("no_such_event").has_value());
}

TEST(ObsJournalCodec, CategoryNamesParse) {
  EXPECT_EQ(parse_categories("all"), kCatAll);
  EXPECT_EQ(parse_categories("detector"), kCatDetector);
  EXPECT_EQ(parse_categories("detector,fault,lifespan"),
            kCatDetector | kCatFault | kCatLifespan);
  EXPECT_EQ(parse_categories(""), 0u);
  EXPECT_FALSE(parse_categories("detector,bogus").has_value());
  EXPECT_EQ(parse_categories("live"), kCatLive);
  EXPECT_EQ(category_name(kCatFault), "fault");
  EXPECT_EQ(category_name(kCatLive), "live");
  EXPECT_EQ(category_name(0x80000000u), "");
}

TEST(ObsJournalCodec, NdjsonRoundTrip) {
  const JournalEvent ev = sample_event();
  const std::string line = to_ndjson(ev);
  EXPECT_NE(line.find("\"ev\":\"zombie_declared\""), std::string::npos);
  EXPECT_NE(line.find("2a0d:3dc1:1851::/48"), std::string::npos);
  const auto parsed = parse_ndjson(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ev);
}

TEST(ObsJournalCodec, NdjsonOmitsAbsentFields) {
  JournalEvent ev;
  ev.type = JournalEventType::kRunMeta;
  ev.time = 100;
  ev.a = 96;
  const std::string line = to_ndjson(ev);
  EXPECT_EQ(line.find("prefix"), std::string::npos);
  EXPECT_EQ(line.find("peer"), std::string::npos);
  const auto parsed = parse_ndjson(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ev);
}

TEST(ObsJournalCodec, NdjsonRejectsMalformed) {
  EXPECT_FALSE(parse_ndjson("").has_value());
  EXPECT_FALSE(parse_ndjson("{}").has_value());
  EXPECT_FALSE(parse_ndjson("{\"ev\":\"bogus\",\"t\":1}").has_value());
  EXPECT_FALSE(parse_ndjson("{\"ev\":\"run_meta\"}").has_value());
  EXPECT_FALSE(
      parse_ndjson("{\"ev\":\"zombie_declared\",\"t\":1,\"prefix\":\"nope\"}").has_value());
}

TEST(ObsJournalCodec, NdjsonFileRoundTrips) {
  std::vector<JournalEvent> events;
  events.push_back(sample_event());
  JournalEvent v4 = sample_event();
  v4.type = JournalEventType::kWithdrawSeen;
  v4.prefix = Prefix::parse("93.175.149.0/24");
  v4.peer_address = IpAddress::parse("193.0.4.28");
  v4.peer_asn = 12654;
  events.push_back(v4);
  JournalEvent bare;
  bare.type = JournalEventType::kSimSessionDown;
  bare.time = 42;
  bare.a = 11;
  bare.b = 100;
  events.push_back(bare);

  const std::string ndjson_path = temp_path("roundtrip.ndjson");
  {
    JournalWriter ndjson(ndjson_path);
    for (const auto& ev : events) ndjson.write(ev);
  }
  EXPECT_EQ(read_journal_file(ndjson_path), events);
  std::remove(ndjson_path.c_str());
}

TEST(ObsJournal, DisabledByDefaultAndRuntimeMaskFilters) {
  Journal journal(16);
  JournalEvent ev = sample_event();
  journal.emit<kCatDetector>(ev);  // mask is 0: dropped silently
  EXPECT_EQ(journal.emitted(), 0u);
  EXPECT_EQ(journal.dropped(), 0u);

  journal.set_enabled_categories(kCatDetector);
  journal.emit<kCatDetector>(ev);
  journal.emit<kCatFault>(ev);  // filtered: not the enabled category
  EXPECT_EQ(journal.emitted(), 1u);
  EXPECT_EQ(journal.tail(10).size(), 1u);
  EXPECT_TRUE(journal.enabled(kCatDetector));
  EXPECT_FALSE(journal.enabled(kCatFault));
}

TEST(ObsJournal, RingDropsWhenFullAndCounts) {
  Journal journal(4);
  journal.set_enabled_categories(kCatAll);
  EXPECT_EQ(journal.capacity(), 4u);
  JournalEvent ev = sample_event();
  for (int i = 0; i < 10; ++i) {
    ev.a = i;
    journal.emit<kCatDetector>(ev);
  }
  EXPECT_EQ(journal.emitted(), 4u);
  EXPECT_EQ(journal.dropped(), 6u);
  const auto tail = journal.tail(10);
  ASSERT_EQ(tail.size(), 4u);
  // The ring keeps the oldest events; overflow drops the newest.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(tail[static_cast<std::size_t>(i)].a, i);
  // Draining frees the slots for further emission.
  ev.a = 99;
  journal.emit<kCatDetector>(ev);
  EXPECT_EQ(journal.emitted(), 5u);
}

TEST(ObsJournal, TailReturnsMostRecentOldestFirst) {
  Journal journal(64);
  journal.set_enabled_categories(kCatAll);
  JournalEvent ev = sample_event();
  for (int i = 0; i < 10; ++i) {
    ev.a = i;
    journal.emit<kCatDetector>(ev);
  }
  const auto tail = journal.tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].a, 7);
  EXPECT_EQ(tail[2].a, 9);
}

TEST(ObsJournal, PumpStreamsToAttachedWriter) {
  const std::string path = temp_path("pump.ndjson");
  Journal journal(64);
  journal.set_enabled_categories(kCatAll);
  journal.attach_writer(std::make_unique<JournalWriter>(path));
  JournalEvent ev = sample_event();
  for (int i = 0; i < 5; ++i) {
    ev.a = i;
    journal.emit<kCatDetector>(ev);
  }
  EXPECT_EQ(journal.pump(), 5u);
  journal.close_writer();
  const auto events = read_journal_file(path);
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[4].a, 4);
  std::remove(path.c_str());
}

TEST(ObsJournal, ResetClearsBufferedAndCounts) {
  Journal journal(16);
  journal.set_enabled_categories(kCatAll);
  JournalEvent ev = sample_event();
  journal.emit<kCatDetector>(ev);
  journal.reset();
  EXPECT_EQ(journal.emitted(), 0u);
  EXPECT_EQ(journal.dropped(), 0u);
  EXPECT_EQ(journal.tail(10).size(), 0u);
}

TEST(ObsJournalConcurrency, DrainUnderConcurrentWriters) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  Journal journal(1024);
  journal.set_enabled_categories(kCatAll);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> drained{0};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire) || journal.approx_size() > 0)
      drained.fetch_add(journal.pump(), std::memory_order_relaxed);
  });

  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&journal, t] {
      JournalEvent ev;
      ev.type = JournalEventType::kAnnounceSeen;
      ev.a = t;
      for (int i = 0; i < kPerThread; ++i) {
        ev.b = i;
        journal.emit<kCatState>(ev);
      }
    });
  }
  for (auto& thread : producers) thread.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  drained.fetch_add(journal.pump(), std::memory_order_relaxed);

  // Every event was either drained or counted as dropped; none lost.
  EXPECT_EQ(drained.load(), journal.emitted());
  EXPECT_EQ(journal.emitted() + journal.dropped(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(ObsJournalConcurrency, GlobalJournalBindsRegistryCounters) {
  Journal& journal = Journal::global();
  const std::uint32_t saved = journal.enabled_categories();
  journal.set_enabled_categories(kCatAll);
  const auto before = Registry::global().snapshot();
  const std::uint64_t* emitted_before =
      before.counter("zs_journal_events_emitted_total");
  journal.emit<kCatDetector>(sample_event());
  const auto after = Registry::global().snapshot();
  const std::uint64_t* emitted_after =
      after.counter("zs_journal_events_emitted_total");
  ASSERT_NE(emitted_after, nullptr);
  EXPECT_EQ(*emitted_after, (emitted_before != nullptr ? *emitted_before : 0) + 1);
  journal.set_enabled_categories(saved);
  journal.pump();
}

}  // namespace
}  // namespace zombiescope::obs
