// Tests for the zslive streaming detection service: the bounded MPSC
// shard queue, prefix-hash partitioning invariants, in-band beacon
// expect ordering, SSE framing, NDJSON feed parsing, and replay-speed
// independence. Suites are Obs-prefixed so scripts/run_tier1.sh runs
// them under TSan and ASan+UBSan: the queue, the snapshot publication,
// and the SSE channel are the subsystem's lock-free/concurrent core.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "live/feed.hpp"
#include "live/loopback.hpp"
#include "live/peerq.hpp"
#include "live/queue.hpp"
#include "live/service.hpp"
#include "obs/http.hpp"
#include "obs/journal.hpp"
#include "obs/lathist.hpp"
#include "random_stream.hpp"

namespace zombiescope::live {
namespace {

using beacon::BeaconEvent;
using netbase::IpAddress;
using netbase::kMinute;
using netbase::Prefix;
using netbase::TimePoint;
using zombie::PeerKey;

PeerKey peer_a() { return {64500, IpAddress::parse("192.0.2.1")}; }
PeerKey peer_b() { return {64501, IpAddress::parse("192.0.2.2")}; }

mrt::MrtRecord announce(TimePoint t, const PeerKey& peer, const Prefix& prefix) {
  mrt::Bgp4mpMessage m;
  m.timestamp = t;
  m.peer_asn = peer.asn;
  m.peer_address = peer.address;
  m.local_asn = 12654;
  m.local_address = IpAddress::parse("193.0.4.28");
  m.update.announced.push_back(prefix);
  m.update.attributes.as_path = bgp::AsPath{peer.asn, 25091, 8298, 210312};
  m.update.attributes.next_hop = peer.address;
  return mrt::MrtRecord{std::move(m)};
}

mrt::MrtRecord withdraw(TimePoint t, const PeerKey& peer, const Prefix& prefix) {
  mrt::Bgp4mpMessage m;
  m.timestamp = t;
  m.peer_asn = peer.asn;
  m.peer_address = peer.address;
  m.local_asn = 12654;
  m.local_address = IpAddress::parse("193.0.4.28");
  m.update.withdrawn.push_back(prefix);
  return mrt::MrtRecord{std::move(m)};
}

// ---------------------------------------------------------------------------
// Bounded MPSC queue
// ---------------------------------------------------------------------------

TEST(ObsLiveQueue, FifoOrderSingleProducer) {
  BoundedMpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(int{i}));
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
}

TEST(ObsLiveQueue, TryPushFailsWhenFullAndRecoversAfterPop) {
  BoundedMpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push(int{i}));
  EXPECT_FALSE(q.try_push(99));
  int v = -1;
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_TRUE(q.try_push(99));
}

TEST(ObsLiveQueue, BlockingPushWaitsForConsumer) {
  BoundedMpscQueue<int> q(4);
  constexpr int kItems = 500;
  std::vector<int> seen;
  std::thread consumer([&] {
    int v = -1;
    while (static_cast<int>(seen.size()) < kItems) {
      if (q.pop_wait(v, std::chrono::milliseconds(50))) seen.push_back(v);
    }
  });
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.push_blocking(int{i}));
  consumer.join();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(ObsLiveQueue, CloseDrainsRemainingThenWakesConsumer) {
  BoundedMpscQueue<int> q(8);
  ASSERT_TRUE(q.try_push(7));
  q.close();
  EXPECT_FALSE(q.push_blocking(8));  // producers refused after close
  int v = -1;
  EXPECT_TRUE(q.pop_wait(v, std::chrono::milliseconds(50)));
  EXPECT_EQ(v, 7);  // the final drain still hands over queued items
  EXPECT_FALSE(q.pop_wait(v, std::chrono::milliseconds(50)));
  EXPECT_TRUE(q.closed());
}

TEST(ObsLiveQueue, MultiProducerStressDeliversEverything) {
  BoundedMpscQueue<int> q(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push_blocking(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> seen;
  seen.reserve(kProducers * kPerProducer);
  int v = -1;
  while (static_cast<int>(seen.size()) < kProducers * kPerProducer) {
    if (q.pop_wait(v, std::chrono::milliseconds(100))) seen.push_back(v);
  }
  for (auto& t : producers) t.join();
  std::set<int> unique(seen.begin(), seen.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kProducers * kPerProducer));
}

// ---------------------------------------------------------------------------
// Shard partitioning
// ---------------------------------------------------------------------------

TEST(ObsLiveShard, SamePrefixAlwaysSameShard) {
  const auto p4 = Prefix::parse("93.175.147.0/24");
  const auto p6 = Prefix::parse("2a0d:3dc1:1200::/48");
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    const std::size_t s4 = shard_for(p4, shards);
    const std::size_t s6 = shard_for(p6, shards);
    EXPECT_LT(s4, shards);
    EXPECT_LT(s6, shards);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(shard_for(p4, shards), s4);
      EXPECT_EQ(shard_for(p6, shards), s6);
    }
  }
}

TEST(ObsLiveShard, HashSpreadsPrefixesAcrossShards) {
  std::set<std::size_t> hit;
  for (int i = 0; i < 64; ++i) {
    const auto prefix =
        Prefix::parse("10." + std::to_string(i) + ".0.0/16");
    hit.insert(shard_for(prefix, 4));
  }
  // 64 distinct prefixes into 4 buckets: every bucket should be used.
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ObsLiveShard, ResizeRejectedAfterStart) {
  LiveConfig config;
  config.shards = 2;
  LiveService service(config);
  service.resize(4);  // fine before start
  service.start();
  EXPECT_THROW(service.resize(8), std::logic_error);
  service.stop();
}

TEST(ObsLiveShard, SubmitRoutesRecordsToOwningShard) {
  LiveConfig config;
  config.shards = 4;
  config.block_on_full = true;
  LiveService service(config);
  service.start();
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  std::vector<std::uint64_t> expected(4, 0);
  for (int i = 0; i < 32; ++i) {
    const auto prefix = Prefix::parse("10." + std::to_string(i) + ".0.0/16");
    ++expected[shard_for(prefix, 4)];
    ASSERT_TRUE(service.submit(announce(t0 + i, peer_a(), prefix)));
  }
  service.finalize(t0 + 1000);
  const auto stats = service.stats();
  ASSERT_EQ(stats.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(stats[i].submitted, expected[i]) << "shard " << i;
    EXPECT_EQ(stats[i].processed, expected[i]) << "shard " << i;
  }
  service.stop();
}

TEST(ObsLiveShard, MultiPrefixUpdateSplitsIntoOnePiecePerShard) {
  // One UPDATE announcing prefixes that live on all four shards: submit
  // cuts it into one piece per shard carrying only that shard's
  // prefixes, and every piece shares the message's path, so four shard
  // threads hold (and release) one path block.
  LiveConfig config;
  config.shards = 4;
  config.block_on_full = true;
  config.detector.threshold = 5 * kMinute;
  LiveService service(config);
  service.start();
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  const auto w = t0 + 10 * kMinute;
  std::vector<Prefix> prefixes;
  std::vector<std::uint64_t> owned(4, 0);
  for (int i = 0; i < 32; ++i) {
    prefixes.push_back(Prefix::parse("10." + std::to_string(i) + ".0.0/16"));
    ++owned[shard_for(prefixes.back(), 4)];
    service.expect({prefixes.back(), t0, w, false});
  }
  for (std::size_t i = 0; i < 4; ++i) ASSERT_GT(owned[i], 0u) << "shard " << i;
  mrt::MrtRecord record = announce(t0 + 10, peer_a(), prefixes.front());
  bgp::UpdateMessage& update = std::get<mrt::Bgp4mpMessage>(record).update;
  update.announced = prefixes;
  const bgp::AsPath path = update.attributes.as_path;
  ASSERT_TRUE(service.submit(record));  // never withdrawn
  service.finalize(w + 6 * kMinute);

  const auto stats = service.stats();
  ASSERT_EQ(stats.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(stats[i].submitted, 1u) << "shard " << i;
    EXPECT_EQ(stats[i].processed, 1u) << "shard " << i;
    const auto snapshot = service.snapshot(i);
    EXPECT_EQ(snapshot->emerged, owned[i]) << "shard " << i;
    for (const auto& pair : *snapshot->emerged_pairs)
      EXPECT_EQ(shard_for(pair.first, 4), i) << pair.first.to_string();
  }
  const auto zombies = service.zombies();
  ASSERT_EQ(zombies.size(), prefixes.size());
  std::set<Prefix> emerged;
  for (const auto& zombie : zombies) {
    EXPECT_EQ(zombie.peer, peer_a());
    EXPECT_EQ(zombie.stuck_path, path) << zombie.prefix.to_string();
    emerged.insert(zombie.prefix);
  }
  EXPECT_EQ(emerged, std::set<Prefix>(prefixes.begin(), prefixes.end()));
  service.stop();
}

TEST(ObsLiveShard, EmergeThenDieViaWithdrawal) {
  LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  config.detector.threshold = 5 * kMinute;
  LiveService service(config);
  service.start();
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  const auto prefix = Prefix::parse("2a0d:3dc1:1200::/48");
  const auto w = t0 + 10 * kMinute;
  service.expect({prefix, t0, w, false});
  ASSERT_TRUE(service.submit(announce(t0 + 10, peer_a(), prefix)));
  ASSERT_TRUE(service.submit(announce(t0 + 12, peer_b(), prefix)));
  // peer_a withdraws in time; peer_b's withdrawal is "lost".
  ASSERT_TRUE(service.submit(withdraw(w + 30, peer_a(), prefix)));
  service.finalize(w + 6 * kMinute);
  auto pairs = service.emerged_pairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, prefix);
  EXPECT_EQ(pairs[0].second, peer_b());
  auto zombies = service.zombies();
  ASSERT_EQ(zombies.size(), 1u);
  EXPECT_EQ(zombies[0].peer, peer_b());
  EXPECT_FALSE(zombies[0].resurrected);
  // The stuck route finally clears: a die event, no active zombie.
  ASSERT_TRUE(service.submit(withdraw(w + 20 * kMinute, peer_b(), prefix)));
  service.finalize(w + 21 * kMinute);
  EXPECT_TRUE(service.zombies().empty());
  std::uint64_t died = 0;
  for (std::size_t i = 0; i < 2; ++i) died += service.snapshot(i)->died;
  EXPECT_EQ(died, 1u);
  EXPECT_GE(service.events().published(), 2u);  // emerge + die on the SSE hub
  service.stop();
}

TEST(ObsLiveShard, ResurrectedZombieIsFlaggedUntilItDies) {
  // peer_a withdraws in time and announces again after the deadline: a
  // resurrection, flagged while it stays stuck (also after a path
  // change rebuilds the published vector) and gone once withdrawn.
  // peer_b's route stays stuck from the deadline on: never flagged.
  LiveConfig config;
  config.shards = 1;
  config.block_on_full = true;
  config.detector.threshold = 5 * kMinute;
  LiveService service(config);
  service.start();
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  const auto prefix = Prefix::parse("2a0d:3dc1:1200::/48");
  const auto w = t0 + 10 * kMinute;
  service.expect({prefix, t0, w, false});
  ASSERT_TRUE(service.submit(announce(t0 + 10, peer_a(), prefix)));
  ASSERT_TRUE(service.submit(announce(t0 + 12, peer_b(), prefix)));
  ASSERT_TRUE(service.submit(withdraw(w + 30, peer_a(), prefix)));
  service.finalize(w + 6 * kMinute);
  auto zombies = service.zombies();
  ASSERT_EQ(zombies.size(), 1u);
  EXPECT_EQ(zombies[0].peer, peer_b());
  EXPECT_FALSE(zombies[0].resurrected);

  ASSERT_TRUE(service.submit(announce(w + 8 * kMinute, peer_a(), prefix)));
  service.finalize(w + 9 * kMinute);
  zombies = service.zombies();
  ASSERT_EQ(zombies.size(), 2u);
  EXPECT_EQ(zombies[0].peer, peer_a());
  EXPECT_EQ(zombies[0].raised_at, w + 8 * kMinute);
  EXPECT_TRUE(zombies[0].resurrected);
  EXPECT_FALSE(zombies[1].resurrected);

  auto rerouted = announce(w + 10 * kMinute, peer_a(), prefix);
  const bgp::AsPath path{peer_a().asn, 3356, 210312};
  std::get<mrt::Bgp4mpMessage>(rerouted).update.attributes.as_path = path;
  ASSERT_TRUE(service.submit(std::move(rerouted)));
  service.finalize(w + 11 * kMinute);
  zombies = service.zombies();
  ASSERT_EQ(zombies.size(), 2u);
  EXPECT_EQ(zombies[0].stuck_path, path);
  EXPECT_TRUE(zombies[0].resurrected);
  EXPECT_FALSE(zombies[1].resurrected);

  ASSERT_TRUE(service.submit(withdraw(w + 12 * kMinute, peer_a(), prefix)));
  service.finalize(w + 13 * kMinute);
  zombies = service.zombies();
  ASSERT_EQ(zombies.size(), 1u);
  EXPECT_EQ(zombies[0].peer, peer_b());
  EXPECT_FALSE(zombies[0].resurrected);
  const auto snap = service.snapshot(0);
  EXPECT_EQ(snap->emerged, 1u);
  EXPECT_EQ(snap->resurrected, 1u);
  EXPECT_EQ(snap->died, 1u);
  service.stop();
}

TEST(ObsLiveShard, UpfrontScheduleDeliveredInStreamOrder) {
  // Regression: a whole multi-cycle schedule registered before any
  // records must not let cycle 2's expect supersede cycle 1's watch
  // before cycle 1's deadline fires.
  LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  config.detector.threshold = 5 * kMinute;
  LiveService service(config);
  service.start();
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  const auto prefix = Prefix::parse("100.64.1.0/24");
  const auto cycle = 20 * kMinute;
  service.expect({prefix, t0, t0 + 10 * kMinute, false});
  service.expect({prefix, t0 + cycle, t0 + cycle + 10 * kMinute, false});
  ASSERT_TRUE(service.submit(announce(t0 + 5, peer_a(), prefix)));
  // Cycle 1's withdrawal never arrives; the next record the shard sees
  // is already cycle 2's announcement.
  ASSERT_TRUE(service.submit(announce(t0 + cycle + 5, peer_a(), prefix)));
  service.finalize();
  // Cycle 1 emerged (deadline t0+15min fired before the recycle at
  // t0+20min) and died at the recycle; cycle 2 emerged too (its
  // withdrawal never arrived either).
  const auto pairs = service.emerged_pairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, prefix);
  std::uint64_t emerged = 0;
  std::uint64_t died = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    emerged += service.snapshot(i)->emerged;
    died += service.snapshot(i)->died;
  }
  EXPECT_EQ(emerged, 2u);
  EXPECT_EQ(died, 1u);
  service.stop();
}

TEST(ObsLiveRandomized, UpfrontScheduleMatchesStreamOrderDetector) {
  // The service, given each random stream's whole schedule up front,
  // must emerge, resurrect, die and close cycles exactly as one
  // detector does when each event is released in stream order, at
  // one shard and across three.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const random_stream::Stream stream = random_stream::generate(seed);
    zombie::RealTimeZombieDetector reference(
        zombie::RealTimeConfig{random_stream::kThreshold});
    std::set<EmergedPair> pairs;
    std::uint64_t emerged = 0;
    std::uint64_t resurrected = 0;
    std::uint64_t died = 0;
    std::uint64_t closes = 0;
    reference.on_alert([&](const zombie::ZombieAlert& alert) {
      const bool on_deadline =
          alert.raised_at == alert.withdrawn_at + random_stream::kThreshold;
      EXPECT_EQ(alert.resurrected, !on_deadline) << "seed " << seed;
      if (on_deadline) {
        pairs.insert({alert.prefix, alert.peer});
        ++emerged;
      } else {
        ++resurrected;
      }
    });
    reference.on_resolution([&](const zombie::ZombieResolution&) { ++died; });
    reference.on_window_close([&](const zombie::WindowPeers&) { ++closes; });
    random_stream::drive_in_stream_order(reference, stream);

    for (const std::size_t shards : {1u, 3u}) {
      LiveConfig config;
      config.shards = shards;
      config.block_on_full = true;
      config.detector.threshold = random_stream::kThreshold;
      LiveService service(config);
      service.start();
      for (const auto& event : stream.schedule) service.expect(event);
      for (const auto& record : stream.records) ASSERT_TRUE(service.submit(record));
      service.finalize();
      const std::string where = "seed " + std::to_string(seed) + ", " +
                                std::to_string(shards) + " shards\n" +
                                random_stream::describe(stream);
      EXPECT_EQ(service.emerged_pairs(),
                std::vector<EmergedPair>(pairs.begin(), pairs.end()))
          << where;
      std::uint64_t live_emerged = 0;
      std::uint64_t live_resurrected = 0;
      std::uint64_t live_died = 0;
      for (std::size_t i = 0; i < shards; ++i) {
        live_emerged += service.snapshot(i)->emerged;
        live_resurrected += service.snapshot(i)->resurrected;
        live_died += service.snapshot(i)->died;
      }
      EXPECT_EQ(live_emerged, emerged) << where;
      EXPECT_EQ(live_resurrected, resurrected) << where;
      EXPECT_EQ(live_died, died) << where;
      EXPECT_EQ(service.peers()->total_cycles, closes) << where;
      service.stop();
      if (HasFailure()) return;
    }
  }
}

TEST(ObsLiveShard, EpochsAdvanceMonotonically) {
  LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  LiveService service(config);
  service.start();
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  std::uint64_t last = service.epoch();
  for (int i = 0; i < 8; ++i) {
    const auto prefix = Prefix::parse("10." + std::to_string(i) + ".0.0/16");
    ASSERT_TRUE(service.submit(announce(t0 + i, peer_a(), prefix)));
    service.finalize(t0 + 100 + i);
    const std::uint64_t now = service.epoch();
    EXPECT_GE(now, last);
    last = now;
  }
  service.stop();
}

TEST(ObsLiveShard, SnapshotsShareZombieVectorsUntilATransition) {
  // A publish with no transition reuses the previous snapshot's zombie
  // and emerged vectors; a transition replaces the one it changed.
  LiveConfig config;
  config.shards = 1;
  config.block_on_full = true;
  config.detector.threshold = 5 * kMinute;
  LiveService service(config);
  service.start();
  // Readers may come before the worker's first publish.
  EXPECT_TRUE(service.zombies().empty());
  EXPECT_TRUE(service.emerged_pairs().empty());
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  const auto prefix = Prefix::parse("2a0d:3dc1:1200::/48");
  const auto w = t0 + 10 * kMinute;
  service.expect({prefix, t0, w, false});
  ASSERT_TRUE(service.submit(announce(t0 + 10, peer_a(), prefix)));
  service.finalize(w + 4 * kMinute);
  const auto before = service.snapshot(0);
  EXPECT_TRUE(before->zombies->empty());
  EXPECT_TRUE(before->emerged_pairs->empty());

  // Emerge: both vectors replaced.
  service.finalize(w + 6 * kMinute);
  const auto emerged = service.snapshot(0);
  EXPECT_NE(emerged->zombies.get(), before->zombies.get());
  EXPECT_NE(emerged->emerged_pairs.get(), before->emerged_pairs.get());
  ASSERT_EQ(emerged->zombies->size(), 1u);
  ASSERT_EQ(emerged->emerged_pairs->size(), 1u);

  // A record that changes no zombie: a new epoch over the same vectors.
  ASSERT_TRUE(service.submit(
      announce(w + 7 * kMinute, peer_b(), Prefix::parse("10.0.0.0/16"))));
  service.finalize(w + 8 * kMinute);
  const auto quiet = service.snapshot(0);
  EXPECT_GT(quiet->epoch, emerged->epoch);
  EXPECT_EQ(quiet->processed, emerged->processed + 1);
  EXPECT_EQ(quiet->zombies.get(), emerged->zombies.get());
  EXPECT_EQ(quiet->emerged_pairs.get(), emerged->emerged_pairs.get());

  // Die: the zombie vector is replaced, the emerged set stays shared.
  ASSERT_TRUE(service.submit(withdraw(w + 9 * kMinute, peer_a(), prefix)));
  service.finalize(w + 10 * kMinute);
  const auto died = service.snapshot(0);
  EXPECT_NE(died->zombies.get(), quiet->zombies.get());
  EXPECT_TRUE(died->zombies->empty());
  EXPECT_EQ(died->emerged_pairs.get(), quiet->emerged_pairs.get());
  service.stop();
}

// ---------------------------------------------------------------------------
// SSE framing and streaming
// ---------------------------------------------------------------------------

TEST(ObsLiveSse, FrameSplitsMultilineData) {
  const std::string f = obs::SseChannel::frame("emerge", "line1\nline2", 7);
  EXPECT_EQ(f, "event: emerge\ndata: line1\ndata: line2\nid: 7\n\n");
}

TEST(ObsLiveSse, CollectReplaysRetainedAndReportsMissed) {
  obs::SseChannel channel(4);
  for (int i = 0; i < 10; ++i) {
    channel.publish("e", "payload" + std::to_string(i));
  }
  std::string out;
  std::uint64_t cursor = channel.collect(1, out);
  EXPECT_EQ(cursor, channel.head());
  EXPECT_NE(out.find(": missed 6 events"), std::string::npos);
  EXPECT_EQ(out.find("payload5"), std::string::npos);  // fell out of retention
  EXPECT_NE(out.find("payload6"), std::string::npos);
  EXPECT_NE(out.find("payload9"), std::string::npos);
  out.clear();
  EXPECT_EQ(channel.collect(cursor, out), cursor);
  EXPECT_TRUE(out.empty());  // caught up: nothing new
}

namespace sse {

/// Connects, sends a GET for `target`, and reads until `want` appears
/// in the stream (or ~2s elapse). Returns everything read.
std::string read_until(std::uint16_t port, const std::string& target,
                       const std::string& want) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  timeval tv{};
  tv.tv_usec = 100 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string raw;
  char buf[4096];
  for (int spins = 0; spins < 20 && raw.find(want) == std::string::npos; ++spins) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) raw.append(buf, static_cast<std::size_t>(n));
    if (n == 0) break;
  }
  ::close(fd);
  return raw;
}

}  // namespace sse

TEST(ObsLiveSse, HttpStreamDeliversPublishedFrames) {
  obs::SseChannel channel;
  obs::HttpServer server;
  server.add_stream("/live/events", &channel);
  ASSERT_TRUE(server.start(0));
  channel.publish("emerge", "{\"prefix\":\"2a0d:3dc1:1200::/48\"}");
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    channel.publish("die", "{\"prefix\":\"2a0d:3dc1:1200::/48\"}");
  });
  // ?since=0 replays the retained emerge, then the live die arrives.
  const std::string raw =
      sse::read_until(server.port(), "/live/events?since=0", "event: die");
  late.join();
  server.stop();
  EXPECT_NE(raw.find("text/event-stream"), std::string::npos);
  EXPECT_NE(raw.find("event: emerge"), std::string::npos);
  EXPECT_NE(raw.find("event: die"), std::string::npos);
  EXPECT_LT(raw.find("event: emerge"), raw.find("event: die"));
}

TEST(ObsLiveSse, HeartbeatsFlowWhenIdle) {
  obs::SseChannel channel;
  obs::HttpServer server;
  server.add_stream("/live/events", &channel);
  server.set_heartbeat_interval_ms(50);
  ASSERT_TRUE(server.start(0));
  const std::string raw = sse::read_until(server.port(), "/live/events", ": hb");
  server.stop();
  EXPECT_NE(raw.find(": hb"), std::string::npos);
}

TEST(ObsLiveSse, DroppedClientDoesNotStallPublishers) {
  obs::SseChannel channel;
  obs::HttpServer server;
  server.add_stream("/live/events", &channel);
  ASSERT_TRUE(server.start(0));
  {
    // Subscribe, read the headers, then vanish without closing cleanly.
    const std::string head =
        sse::read_until(server.port(), "/live/events", "text/event-stream");
    ASSERT_NE(head.find("200 OK"), std::string::npos);
  }
  // Publishing to a hub whose only subscriber is gone must not block.
  for (int i = 0; i < 100; ++i) channel.publish("e", "x");
  EXPECT_EQ(channel.published(), 100u);
  // And a fresh subscriber still gets served.
  channel.publish("fresh", "y");
  const std::string raw =
      sse::read_until(server.port(), "/live/events?since=0", "event: fresh");
  EXPECT_NE(raw.find("event: fresh"), std::string::npos);
  server.stop();
}

TEST(ObsLiveSse, SlowConsumerIsEvictedWithoutBlockingOthers) {
  obs::SseChannel channel;
  obs::HttpServer server;
  server.add_stream("/live/events", &channel);
  // A tiny backlog bound so a stalled client trips eviction quickly.
  server.set_max_client_buffer(4096);
  ASSERT_TRUE(server.start(0));

  // A client that subscribes, reads the headers, then stops reading
  // entirely while keeping the socket open — the classic slow consumer.
  const int slow_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(slow_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(slow_fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // Shrink the kernel receive buffer so the server's sends back up
  // into its userspace backlog instead of the socket buffers.
  int rcvbuf = 1024;
  ::setsockopt(slow_fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  const std::string request = "GET /live/events HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_GT(::send(slow_fd, request.data(), request.size(), 0), 0);
  char head[256];
  (void)::recv(slow_fd, head, sizeof(head), 0);  // headers only, then stall

  // Flooding the channel must neither block this (publisher) thread
  // nor wedge the serving loop: the stalled client's backlog crosses
  // max_client_buffer and it gets evicted.
  const std::string payload(512, 'x');
  const auto flood_started = std::chrono::steady_clock::now();
  for (int i = 0; i < 200; ++i) channel.publish("flood", payload);
  const auto flood_elapsed =
      std::chrono::steady_clock::now() - flood_started;
  EXPECT_EQ(channel.published(), 200u);
  EXPECT_LT(flood_elapsed, std::chrono::seconds(5));

  // Eviction happens on the serving thread's next write pass; a fresh
  // well-behaved client must be served regardless, proving the fanout
  // loop never stalled on the dead weight. A no-?since subscriber only
  // sees events published after it connects, so publish from a delayed
  // thread once the reader is attached.
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    channel.publish("fresh", "y");
  });
  const std::string raw =
      sse::read_until(server.port(), "/live/events", "event: fresh");
  late.join();
  EXPECT_NE(raw.find("event: fresh"), std::string::npos);

  // The stalled client is gone by now (or on the next pass): poll
  // briefly for the eviction counter.
  bool evicted = false;
  for (int spin = 0; spin < 100 && !evicted; ++spin) {
    evicted = server.slow_clients_evicted() > 0;
    if (!evicted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(evicted) << "slow client was never evicted";
  ::close(slow_fd);
  server.stop();
}

// ---------------------------------------------------------------------------
// RIS-Live NDJSON parsing and the TCP feed
// ---------------------------------------------------------------------------

TEST(ObsLiveFeed, ParsesWrappedUpdateWithPathAndSet) {
  const auto record = parse_ris_live_line(
      R"({"type":"ris_message","data":{"timestamp":1717500000.42,)"
      R"("peer":"192.0.2.1","peer_asn":"64500","type":"UPDATE",)"
      R"("path":[64500,[25091,25092],8298,210312],)"
      R"("announcements":[{"next_hop":"192.0.2.1",)"
      R"("prefixes":["93.175.147.0/24","2a0d:3dc1:1200::/48"]}],)"
      R"("withdrawals":["93.175.146.0/24"]}})");
  ASSERT_TRUE(record.has_value());
  const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&*record);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->timestamp, 1717500000);
  EXPECT_EQ(msg->peer_asn, 64500u);
  EXPECT_EQ(msg->peer_address, IpAddress::parse("192.0.2.1"));
  ASSERT_EQ(msg->update.announced.size(), 2u);
  EXPECT_EQ(msg->update.announced[0], Prefix::parse("93.175.147.0/24"));
  ASSERT_EQ(msg->update.withdrawn.size(), 1u);
  // Nested arrays (AS_SET) are flattened into the sequence.
  EXPECT_EQ(msg->update.attributes.as_path.length(), 5);
}

TEST(ObsLiveFeed, ParsesBareStateMessage) {
  const auto record = parse_ris_live_line(
      R"({"timestamp":1717500060,"peer":"192.0.2.9","peer_asn":64509,)"
      R"("type":"RIS_PEER_STATE","state":"connected"})");
  ASSERT_TRUE(record.has_value());
  const auto* state = std::get_if<mrt::Bgp4mpStateChange>(&*record);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->peer_asn, 64509u);
  EXPECT_EQ(state->new_state, bgp::SessionState::kEstablished);
}

TEST(ObsLiveFeed, RejectsMalformedAndUselessLines) {
  EXPECT_FALSE(parse_ris_live_line("").has_value());
  EXPECT_FALSE(parse_ris_live_line("not json at all").has_value());
  EXPECT_FALSE(parse_ris_live_line(R"({"type":"ris_error","data":{}})").has_value());
  // An UPDATE with no prefixes carries nothing for the detector.
  EXPECT_FALSE(parse_ris_live_line(
                   R"({"timestamp":1,"peer":"192.0.2.1","peer_asn":1,)"
                   R"("type":"UPDATE"})")
                   .has_value());
  // Missing peer identity.
  EXPECT_FALSE(parse_ris_live_line(
                   R"({"timestamp":1,"type":"UPDATE","withdrawals":["10.0.0.0/8"]})")
                   .has_value());
  // Numbers the record cannot hold: path elements and peer_asn must be
  // integers in [0, 2^32), the timestamp finite and within int64.
  const auto update = [](const std::string& fields) {
    return R"({"peer":"192.0.2.1","type":"UPDATE",)" + fields +
           R"(,"withdrawals":["10.0.0.0/8"]})";
  };
  ASSERT_TRUE(parse_ris_live_line(update(R"("timestamp":1,"peer_asn":1,"path":[1])"))
                  .has_value());
  EXPECT_FALSE(parse_ris_live_line(update(R"("timestamp":1,"peer_asn":1,"path":[1e300])"))
                   .has_value());
  EXPECT_FALSE(parse_ris_live_line(update(R"("timestamp":1,"peer_asn":1,"path":[-5])"))
                   .has_value());
  EXPECT_FALSE(parse_ris_live_line(update(R"("timestamp":1,"peer_asn":1,"path":[1e999])"))
                   .has_value());
  EXPECT_FALSE(parse_ris_live_line(update(R"("timestamp":1e300,"peer_asn":1)"))
                   .has_value());
  EXPECT_FALSE(parse_ris_live_line(update(R"("timestamp":1,"peer_asn":1.5)"))
                   .has_value());
}

TEST(ObsLiveFeed, TcpFeedSubmitsParsedLines) {
  LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  LiveService service(config);
  service.start();
  TcpNdjsonFeedSource feed(0);
  ASSERT_NE(feed.port(), 0);
  FeedSource::RunStats stats;
  std::thread pump([&] { stats = feed.run(service); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(feed.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string lines =
      R"({"timestamp":1717500000,"peer":"192.0.2.1","peer_asn":64500,)"
      R"("type":"UPDATE","announcements":[{"next_hop":"192.0.2.1",)"
      R"("prefixes":["93.175.147.0/24"]}]})"
      "\n"
      "this line is garbage\n"
      R"({"timestamp":1717500100,"peer":"192.0.2.1","peer_asn":64500,)"
      R"("type":"UPDATE","withdrawals":["93.175.147.0/24"]})"
      "\n";
  ASSERT_EQ(::send(fd, lines.data(), lines.size(), 0),
            static_cast<ssize_t>(lines.size()));
  ::close(fd);

  for (int spins = 0; spins < 100 && service.processed() < 2; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  feed.stop();
  pump.join();
  service.finalize(1717500200);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.parse_errors, 1u);
  EXPECT_EQ(service.processed(), 2u);
  service.stop();
}

TEST(ObsLiveFeed, TcpFeedFlushesFinalUnterminatedLineOnDisconnect) {
  // A peer that disconnects mid-stream without a trailing newline must
  // still have its buffered final line parsed and submitted — EOF acts
  // as the line terminator.
  LiveConfig config;
  config.shards = 1;
  config.block_on_full = true;
  LiveService service(config);
  service.start();
  TcpNdjsonFeedSource feed(0);
  ASSERT_NE(feed.port(), 0);
  FeedSource::RunStats stats;
  std::thread pump([&] { stats = feed.run(service); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(feed.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string lines =
      R"({"timestamp":1717500000,"peer":"192.0.2.1","peer_asn":64500,)"
      R"("type":"UPDATE","announcements":[{"next_hop":"192.0.2.1",)"
      R"("prefixes":["93.175.147.0/24"]}]})"
      "\n"
      // No trailing newline: only EOF terminates this one.
      R"({"timestamp":1717500100,"peer":"192.0.2.1","peer_asn":64500,)"
      R"("type":"UPDATE","withdrawals":["93.175.147.0/24"]})";
  ASSERT_EQ(::send(fd, lines.data(), lines.size(), 0),
            static_cast<ssize_t>(lines.size()));
  ::close(fd);

  for (int spins = 0; spins < 200 && service.processed() < 2; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  feed.stop();
  pump.join();
  service.finalize(1717500200);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.parse_errors, 0u);
  EXPECT_EQ(service.processed(), 2u);
  service.stop();
}

TEST(ObsLiveFeed, OverlongLineClosesClient) {
  // A client streaming one endless line is cut off at the 1 MiB cap:
  // one parse error, its connection closed, other clients unaffected.
  LiveConfig config;
  config.shards = 1;
  config.block_on_full = true;
  LiveService service(config);
  service.start();
  TcpNdjsonFeedSource feed(0);
  ASSERT_NE(feed.port(), 0);
  FeedSource::RunStats stats;
  std::thread pump([&] { stats = feed.run(service); });

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(feed.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const auto connect_client = [&addr] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  };
  const int good = connect_client();
  const int hog = connect_client();

  // 2 MiB without a newline. The feed hangs up partway, so a send may
  // fail; stop sending there.
  const std::string chunk(64 * 1024, 'x');
  for (std::size_t sent = 0; sent < 2 * 1024 * 1024;) {
    const ssize_t n = ::send(hog, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  char byte = 0;
  const ssize_t got = ::recv(hog, &byte, 1, 0);
  EXPECT_TRUE(got == 0 || (got < 0 && errno == ECONNRESET))
      << "the feed kept the client open (recv " << got << ")";
  ::close(hog);

  const std::string line =
      R"({"timestamp":1717500100,"peer":"192.0.2.1","peer_asn":64500,)"
      R"("type":"UPDATE","announcements":[{"next_hop":"192.0.2.1",)"
      R"("prefixes":["93.175.147.0/24"]}]})"
      "\n";
  ASSERT_EQ(::send(good, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  ::close(good);

  for (int spins = 0; spins < 200 && service.processed() < 1; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  feed.stop();
  pump.join();
  service.finalize(1717500200);
  EXPECT_EQ(stats.parse_errors, 1u);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(service.processed(), 1u);
  service.stop();
}

TEST(ObsLiveFeed, TcpFeedSurvivesDisconnectAndAcceptsReconnect) {
  // Client drops, another one (the "reconnect") comes back: the feed
  // keeps serving, and per-client line buffers do not bleed between
  // connections.
  LiveConfig config;
  config.shards = 1;
  config.block_on_full = true;
  LiveService service(config);
  service.start();
  TcpNdjsonFeedSource feed(0);
  ASSERT_NE(feed.port(), 0);
  FeedSource::RunStats stats;
  std::thread pump([&] { stats = feed.run(service); });

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(feed.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  // First connection dies holding half a line in its buffer; the
  // half-line flushes at EOF and fails to parse — one parse error,
  // nothing submitted, the server must not crash or stall.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::string partial = R"({"timestamp":1717500000,"peer":"192.0)";
    ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
              static_cast<ssize_t>(partial.size()));
    ::close(fd);
  }

  // Reconnect and feed a complete record: must be parsed cleanly, with
  // no residue from the first connection's buffer.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::string line =
        R"({"timestamp":1717500100,"peer":"192.0.2.1","peer_asn":64500,)"
        R"("type":"UPDATE","announcements":[{"next_hop":"192.0.2.1",)"
        R"("prefixes":["93.175.147.0/24"]}]})"
        "\n";
    ASSERT_EQ(::send(fd, line.data(), line.size(), 0),
              static_cast<ssize_t>(line.size()));
    ::close(fd);
  }

  for (int spins = 0; spins < 200 && service.processed() < 1; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  feed.stop();
  pump.join();
  service.finalize(1717500200);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.parse_errors, 1u);
  EXPECT_EQ(service.processed(), 1u);
  service.stop();
}

// ---------------------------------------------------------------------------
// zspeerq: per-peer feed quality
// ---------------------------------------------------------------------------

mrt::MrtRecord session_drop(TimePoint t, const PeerKey& peer) {
  mrt::Bgp4mpStateChange c;
  c.timestamp = t;
  c.peer_asn = peer.asn;
  c.peer_address = peer.address;
  c.old_state = bgp::SessionState::kEstablished;
  c.new_state = bgp::SessionState::kIdle;
  return mrt::MrtRecord{c};
}

BeaconEvent cycle_event(const Prefix& prefix, TimePoint announce,
                        TimePoint withdraw, bool superseded = false) {
  BeaconEvent event;
  event.prefix = prefix;
  event.announce_time = announce;
  event.withdraw_time = withdraw;
  event.superseded = superseded;
  return event;
}

std::shared_ptr<const PeerQShardSnapshot> make_snap(
    std::uint64_t epoch, TimePoint clock, std::uint64_t cycles,
    std::vector<std::pair<PeerKey, PeerCell>> peers) {
  auto snap = std::make_shared<PeerQShardSnapshot>();
  snap->epoch = epoch;
  snap->clock = clock;
  snap->cycles_closed = cycles;
  for (auto& [key, cell] : peers) snap->peers[key] = cell;
  return snap;
}

/// An accumulator attached to a detector, fed as a shard worker feeds
/// them: each record to the detector first, then to the accumulator.
struct PeerQHarness {
  explicit PeerQHarness(netbase::Duration threshold)
      : detector(zombie::RealTimeConfig{threshold}) {
    detector.on_window_close(
        [this](const zombie::WindowPeers& window) { acc.on_window_close(window); });
  }
  void feed(const mrt::MrtRecord& record) {
    detector.ingest(record);
    acc.on_record(record);
  }

  zombie::RealTimeZombieDetector detector;
  PeerQAccumulator acc;
};

PeerCell stuck_cell(std::uint64_t stuck, std::uint64_t updates = 100) {
  PeerCell cell;
  cell.updates = updates;
  cell.stuck = stuck;
  return cell;
}

TEST(ObsPeerQ, WilsonIntervalKnownValuesAndEdges) {
  // No evidence: the full [0, 1] band.
  const auto empty = wilson_interval(0, 0);
  EXPECT_EQ(empty.low, 0.0);
  EXPECT_EQ(empty.high, 1.0);
  // Classic check: 5/10 at z = 1.96 -> [0.2366, 0.7634].
  const auto half = wilson_interval(5, 10);
  EXPECT_NEAR(half.low, 0.2366, 1e-3);
  EXPECT_NEAR(half.high, 0.7634, 1e-3);
  // More trials at the same ratio narrow the band.
  const auto more = wilson_interval(500, 1000);
  EXPECT_GT(more.low, half.low);
  EXPECT_LT(more.high, half.high);
  // Extremes stay clamped inside [0, 1].
  const auto all = wilson_interval(10, 10);
  EXPECT_GT(all.low, 0.5);
  EXPECT_LE(all.high, 1.0);
  const auto none = wilson_interval(0, 10);
  EXPECT_GE(none.low, 0.0);
  EXPECT_LT(none.high, 0.5);
}

TEST(ObsPeerQ, AccumulatorTracksCycleVisibilityAndMissStreaks) {
  const Prefix prefix = Prefix::parse("93.175.147.0/24");
  const netbase::Duration threshold = 90 * kMinute;
  PeerQHarness h(threshold);
  PeerQAccumulator& acc = h.acc;

  // Cycle 1: both peers announce, only A withdraws in the window.
  h.detector.expect(cycle_event(prefix, 1000, 1000 + 2 * 3600));
  h.feed(announce(1100, peer_a(), prefix));
  h.feed(announce(1200, peer_b(), prefix));
  h.feed(withdraw(1000 + 2 * 3600 + 10, peer_a(), prefix));
  // A withdrawal *before* the scheduled withdraw time belongs to an
  // earlier window and must not count.
  h.feed(withdraw(2000, peer_b(), prefix));
  EXPECT_EQ(acc.cycles_closed(), 0u);
  h.detector.advance(1000 + 2 * 3600 + threshold + 1);  // strictly past deadline
  EXPECT_EQ(acc.cycles_closed(), 1u);

  // Cycle 2: only A shows up; B starts a miss streak.
  const TimePoint t2 = 1000 + 4 * 3600;
  h.detector.expect(cycle_event(prefix, t2, t2 + 2 * 3600));
  h.feed(announce(t2 + 100, peer_a(), prefix));
  h.detector.advance(t2 + 2 * 3600 + threshold + 1);
  EXPECT_EQ(acc.cycles_closed(), 2u);

  // A superseded event never opens a cycle.
  h.detector.expect(cycle_event(prefix, t2, t2 + 2 * 3600, /*superseded=*/true));
  h.detector.advance(t2 + 100 * 3600);
  EXPECT_EQ(acc.cycles_closed(), 2u);

  const auto snap = acc.snapshot(t2 + 100 * 3600, 1);
  const PeerCell& a = snap->peers.at(peer_a());
  EXPECT_EQ(a.ann_seen, 2u);
  EXPECT_EQ(a.wd_seen, 1u);
  EXPECT_EQ(a.miss_streak, 0u);
  EXPECT_EQ(a.updates, 3u);
  EXPECT_EQ(a.announcements, 2u);
  EXPECT_EQ(a.withdrawals, 1u);
  const PeerCell& b = snap->peers.at(peer_b());
  EXPECT_EQ(b.ann_seen, 1u);
  EXPECT_EQ(b.wd_seen, 0u);
  EXPECT_EQ(b.miss_streak, 1u);
}

TEST(ObsPeerQ, WindowsClosingTogetherApplyInDeadlineThenPrefixOrder) {
  // Two beacon windows share a withdraw time, so they close at the
  // same instant. The shard applies the closes in the detector's
  // (deadline, prefix) order, whatever order they were released in:
  // the lower prefix first. peer_a sees only the higher prefix's
  // window and ends on a seen cycle; peer_b the reverse.
  LiveConfig config;
  config.shards = 1;
  config.block_on_full = true;
  config.detector.threshold = 5 * kMinute;
  LiveService service(config);
  service.start();
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  const auto w = t0 + 10 * kMinute;
  const Prefix low = Prefix::parse("2a0d:3dc1:1100::/48");
  const Prefix high = Prefix::parse("2a0d:3dc1:1200::/48");
  service.expect(cycle_event(high, t0, w));  // released first
  service.expect(cycle_event(low, t0, w));
  ASSERT_TRUE(service.submit(announce(t0 + 10, peer_a(), high)));
  ASSERT_TRUE(service.submit(announce(t0 + 12, peer_b(), low)));
  // A finalize exactly on the shared deadline closes both windows.
  service.finalize(w + 5 * kMinute);
  const auto table = service.peers();
  EXPECT_EQ(table->total_cycles, 2u);
  const PeerRow* a = table->find(peer_a());
  const PeerRow* b = table->find(peer_b());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->ann_seen, 1u);
  EXPECT_EQ(a->miss_streak, 0u);
  EXPECT_EQ(b->ann_seen, 1u);
  EXPECT_EQ(b->miss_streak, 1u);
  service.stop();
}

TEST(ObsPeerQ, AccumulatorUniverseMatchesStateTrackerRules) {
  PeerQAccumulator acc;
  // A session state change alone never creates a peer...
  acc.on_record(session_drop(1000, peer_a()));
  EXPECT_EQ(acc.peer_count(), 0u);
  // ...but an update does, and later resets on that peer count.
  acc.on_record(announce(1100, peer_a(), Prefix::parse("10.0.0.0/8")));
  EXPECT_EQ(acc.peer_count(), 1u);
  acc.on_record(session_drop(1200, peer_a()));
  acc.on_record(session_drop(1300, peer_a()));
  // A stuck route creates its peer too (RIB-sourced zombies can
  // involve peers never seen in the update stream).
  zombie::ZombieAlert alert;
  alert.prefix = Prefix::parse("10.0.0.0/8");
  alert.peer = peer_b();
  acc.on_stuck(alert);
  EXPECT_EQ(acc.peer_count(), 2u);

  const auto snap = acc.snapshot(2000, 1);
  EXPECT_EQ(snap->peers.at(peer_a()).session_resets, 2u);
  EXPECT_EQ(snap->peers.at(peer_b()).stuck, 1u);
  EXPECT_EQ(snap->peers.at(peer_b()).updates, 0u);
}

TEST(ObsPeerQ, SnapshotClearsPublishDue) {
  PeerQAccumulator acc;
  EXPECT_FALSE(acc.publish_due());
  acc.on_record(announce(1000, peer_a(), Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(acc.publish_due());
  (void)acc.snapshot(1000, 1);
  EXPECT_FALSE(acc.publish_due());
  // Another update to a known peer is not classifier-relevant...
  acc.on_record(announce(1100, peer_a(), Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(acc.publish_due());
  // ...a session reset is.
  acc.on_record(session_drop(1200, peer_a()));
  EXPECT_TRUE(acc.publish_due());
}

TEST(ObsPeerQ, MergeSumsPrefixRoutedAndMaxesBroadcastCounters) {
  PeerCell shard0;
  shard0.updates = 10;
  shard0.announcements = 7;
  shard0.withdrawals = 3;
  shard0.stuck = 2;
  shard0.ann_seen = 5;
  shard0.wd_seen = 4;
  shard0.last_seen = 1000;
  shard0.session_resets = 2;  // broadcast: both shards saw both resets
  shard0.miss_streak = 1;
  PeerCell shard1 = shard0;
  shard1.updates = 4;
  shard1.last_seen = 1500;
  shard1.miss_streak = 3;

  PeerTableBuilder builder{PeerQConfig{}};
  const auto table = builder.build(
      {make_snap(1, 1500, 60, {{peer_a(), shard0}}),
       make_snap(2, 1500, 40, {{peer_a(), shard1}})},
      /*clock=*/1500, /*new_data=*/true, /*converge=*/false);
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->fingerprint, 3u);
  EXPECT_EQ(table->total_cycles, 100u);
  const PeerRow& row = table->rows[0];
  EXPECT_EQ(row.updates, 14u);         // summed
  EXPECT_EQ(row.announcements, 14u);   // summed
  EXPECT_EQ(row.stuck, 4u);            // summed
  EXPECT_EQ(row.ann_seen, 10u);        // summed
  EXPECT_EQ(row.last_seen, 1500);      // max
  EXPECT_EQ(row.session_resets, 2u);   // max, NOT 4
  EXPECT_EQ(row.miss_streak, 3u);      // max
  EXPECT_DOUBLE_EQ(row.probability, 0.04);
}

TEST(ObsPeerQ, ClassifierEntryNeedsCyclesWilsonAndDwell) {
  PeerQConfig config;
  config.dwell = 2;
  PeerTableBuilder builder{config};
  // Two clean peers keep the median at zero; peer B is the offender
  // (an odd universe size makes the median the middle clean value).
  const PeerKey clean{64502, IpAddress::parse("192.0.2.3")};
  const auto snaps_at = [&](std::uint64_t epoch, std::uint64_t cycles,
                            std::uint64_t stuck) {
    return std::vector<std::shared_ptr<const PeerQShardSnapshot>>{make_snap(
        epoch, 1000, cycles,
        {{peer_a(), stuck_cell(0)},
         {clean, stuck_cell(0)},
         {peer_b(), stuck_cell(stuck)}})};
  };

  // Raw-noisy but below min_cycles: published entry is blocked.
  auto table = builder.build(snaps_at(1, 10, 5), 1000, true, false);
  const PeerRow* b = table->find(peer_b());
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->noisy_raw);
  EXPECT_FALSE(b->noisy);

  // Enough cycles and a Wilson lower bound past the floor: the dwell
  // still holds the flip for `dwell` consecutive data epochs.
  table = builder.build(snaps_at(2, 100, 30), 1000, true, false);
  EXPECT_TRUE(table->find(peer_b())->noisy_raw);
  EXPECT_FALSE(table->find(peer_b())->noisy);  // streak 1 of 2
  // A no-new-data rebuild (poll) must not age the streak.
  table = builder.build(snaps_at(2, 100, 30), 1000, false, false);
  EXPECT_FALSE(table->find(peer_b())->noisy);
  // Second data epoch: flips.
  table = builder.build(snaps_at(3, 100, 30), 1000, true, false);
  EXPECT_TRUE(table->find(peer_b())->noisy);
  EXPECT_EQ(table->noisy_count, 1u);

  // Exit follows the raw rule with the same dwell.
  table = builder.build(snaps_at(4, 1000, 30), 1000, true, false);
  EXPECT_FALSE(table->find(peer_b())->noisy_raw);  // p = 0.03 < floor
  EXPECT_TRUE(table->find(peer_b())->noisy);       // streak 1 of 2
  table = builder.build(snaps_at(5, 1000, 30), 1000, true, false);
  EXPECT_FALSE(table->find(peer_b())->noisy);
}

TEST(ObsPeerQ, ConvergeSnapsPublishedStateToRawRule) {
  PeerQConfig config;
  config.dwell = 100;  // a dwell the stream could never satisfy
  PeerTableBuilder builder{config};
  const std::vector<std::shared_ptr<const PeerQShardSnapshot>> snaps{make_snap(
      1, 1000, 100,
      {{peer_a(), stuck_cell(0)},
       {PeerKey{64502, IpAddress::parse("192.0.2.3")}, stuck_cell(0)},
       {peer_b(), stuck_cell(30)}})};
  auto table = builder.build(snaps, 1000, true, false);
  EXPECT_FALSE(table->find(peer_b())->noisy);
  // converge (finalize) bypasses dwell, min_cycles, and Wilson gates.
  table = builder.build(snaps, 1000, true, true);
  EXPECT_TRUE(table->find(peer_b())->noisy);
  EXPECT_FALSE(table->find(peer_a())->noisy);
}

TEST(ObsPeerQ, SilentEpisodeJournaledOncePerEpisode) {
  obs::Journal& journal = obs::Journal::global();
  const std::uint32_t saved = journal.enabled_categories();
  journal.set_enabled_categories(obs::kCatPeer);
  journal.reset();

  PeerQConfig config;
  PeerTableBuilder builder{config};
  PeerCell cell;
  cell.updates = 5;
  cell.last_seen = 1000;
  const auto build_at = [&](std::uint64_t epoch, TimePoint clock) {
    return builder.build({make_snap(epoch, clock, 0, {{peer_a(), cell}})},
                         clock, true, false);
  };

  auto table = build_at(1, 1000 + kSilentAfter);  // not yet past
  EXPECT_FALSE(table->rows[0].silent);
  EXPECT_EQ(table->feeding_count, 1u);
  table = build_at(2, 1000 + kSilentAfter + 1);
  EXPECT_TRUE(table->rows[0].silent);
  EXPECT_EQ(table->silent_count, 1u);
  EXPECT_EQ(table->feeding_count, 0u);
  // Still silent on the next build: no second journal event.
  table = build_at(3, 1000 + 2 * kSilentAfter);
  EXPECT_TRUE(table->rows[0].silent);
  // Peer comes back, goes quiet again: a fresh episode, a fresh event.
  cell.last_seen = 100000;
  cell.updates = 6;
  table = build_at(4, 100000 + 60);
  EXPECT_FALSE(table->rows[0].silent);
  table = build_at(5, 100000 + kSilentAfter + 1);
  EXPECT_TRUE(table->rows[0].silent);

  const auto events = journal.tail(16);
  std::size_t silent_events = 0;
  for (const auto& ev : events) {
    if (ev.type != obs::JournalEventType::kPeerSilent) continue;
    ++silent_events;
    EXPECT_TRUE(ev.has_peer);
    EXPECT_EQ(ev.peer_asn, peer_a().asn);
    EXPECT_GT(ev.a, kSilentAfter);  // silent age
  }
  EXPECT_EQ(silent_events, 2u);
  journal.reset();
  journal.set_enabled_categories(saved);
}

TEST(ObsPeerQ, NoisyTransitionsEmitJournalEvents) {
  obs::Journal& journal = obs::Journal::global();
  const std::uint32_t saved = journal.enabled_categories();
  journal.set_enabled_categories(obs::kCatPeer);
  journal.reset();

  PeerQConfig config;
  config.dwell = 1;
  PeerTableBuilder builder{config};
  const auto snaps_at = [&](std::uint64_t epoch, std::uint64_t stuck) {
    return std::vector<std::shared_ptr<const PeerQShardSnapshot>>{make_snap(
        epoch, 1000, 100,
        {{peer_a(), stuck_cell(0)},
         {PeerKey{64502, IpAddress::parse("192.0.2.3")}, stuck_cell(0)},
         {peer_b(), stuck_cell(stuck)}})};
  };
  (void)builder.build(snaps_at(1, 30), 1000, true, false);  // enter
  (void)builder.build(snaps_at(2, 0), 2000, true, false);   // exit

  const auto events = journal.tail(8);
  std::vector<obs::JournalEvent> peer_events;
  for (const auto& ev : events) {
    if (ev.type == obs::JournalEventType::kPeerNoisyEnter ||
        ev.type == obs::JournalEventType::kPeerNoisyExit) {
      peer_events.push_back(ev);
    }
  }
  ASSERT_EQ(peer_events.size(), 2u);
  EXPECT_EQ(peer_events[0].type, obs::JournalEventType::kPeerNoisyEnter);
  EXPECT_EQ(peer_events[0].peer_asn, peer_b().asn);
  EXPECT_EQ(peer_events[0].a, 300000);  // p = 0.30 in ppm
  EXPECT_EQ(peer_events[0].c, 30);      // stuck routes
  EXPECT_EQ(peer_events[1].type, obs::JournalEventType::kPeerNoisyExit);
  journal.reset();
  journal.set_enabled_categories(saved);
}

TEST(ObsPeerQ, JsonCarriesTableAndNoisyOnlyFiltersSorted) {
  PeerQConfig config;
  config.dwell = 1;
  PeerTableBuilder builder{config};
  PeerCell worst = stuck_cell(40);
  const auto table = builder.build(
      {make_snap(7, 5000, 100,
                 {{peer_a(), stuck_cell(0)},
                  {PeerKey{64503, IpAddress::parse("192.0.2.4")}, stuck_cell(0)},
                  {PeerKey{64504, IpAddress::parse("192.0.2.5")}, stuck_cell(0)},
                  {peer_b(), stuck_cell(30)},
                  {PeerKey{64502, IpAddress::parse("192.0.2.3")}, worst}})},
      5000, true, false);
  const std::string full = peer_table_json(*table, 42, false);
  EXPECT_NE(full.find("\"epoch\":42"), std::string::npos);
  EXPECT_NE(full.find("\"total_cycles\":100"), std::string::npos);
  EXPECT_NE(full.find("\"noisy_count\":2"), std::string::npos);
  EXPECT_NE(full.find("\"address\":\"192.0.2.1\""), std::string::npos);
  EXPECT_NE(full.find("\"wilson_low\":"), std::string::npos);
  EXPECT_NE(full.find("\"probability\":0.300000"), std::string::npos);

  const std::string noisy = peer_table_json(*table, 42, true);
  // Clean peer A excluded; offenders sorted worst-first.
  EXPECT_EQ(noisy.find("\"address\":\"192.0.2.1\""), std::string::npos);
  const auto worst_pos = noisy.find("\"asn\":64502");
  const auto next_pos = noisy.find("\"asn\":64501");
  ASSERT_NE(worst_pos, std::string::npos);
  ASSERT_NE(next_pos, std::string::npos);
  EXPECT_LT(worst_pos, next_pos);
}

TEST(ObsPeerQ, ServicePublishesPeersEndpointAndProvenance) {
  // End-to-end through LiveService: the /peers surface reflects the
  // replayed stream, and /live/zombies carries supporting-peer
  // provenance fields.
  LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  config.detector.threshold = 90 * kMinute;
  LiveService service(config);
  service.start();
  const Prefix prefix = Prefix::parse("93.175.147.0/24");
  service.expect(cycle_event(prefix, 1000, 1000 + 2 * 3600));
  service.submit(announce(1100, peer_a(), prefix));
  service.submit(announce(1200, peer_b(), prefix));
  // A withdraws in the window; B keeps the route stuck.
  service.submit(withdraw(1000 + 2 * 3600 + 5, peer_a(), prefix));
  service.finalize(1000 + 24 * 3600);

  const auto table = service.peers();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->total_cycles, 1u);
  ASSERT_EQ(table->rows.size(), 2u);
  const PeerRow* a = table->find(peer_a());
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->stuck, 0u);
  EXPECT_EQ(a->ann_seen, 1u);
  EXPECT_EQ(a->wd_seen, 1u);
  const PeerRow* b = table->find(peer_b());
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->stuck, 1u);
  EXPECT_EQ(b->wd_seen, 0u);

  const std::string json = service.peers_json(false);
  EXPECT_NE(json.find("\"asn\":64500"), std::string::npos);
  EXPECT_NE(json.find("\"asn\":64501"), std::string::npos);
  const std::string zombies = service.zombies_json();
  // Raised at the deadline: withdraw (1000 + 2 h) + 90 min.
  EXPECT_NE(zombies.find("\"raised_at\":13600"), std::string::npos) << zombies;
  EXPECT_NE(zombies.find("\"support_peers\":1"), std::string::npos);
  EXPECT_NE(zombies.find("\"support_non_noisy\":1"), std::string::npos);
  EXPECT_NE(zombies.find("\"confidence\":"), std::string::npos);
  service.stop();
}

TEST(ObsPeerQ, DisabledConfigServesEmptyTable) {
  LiveConfig config;
  config.shards = 1;
  config.block_on_full = true;
  config.peerq.enabled = false;
  LiveService service(config);
  service.start();
  service.submit(announce(1000, peer_a(), Prefix::parse("10.0.0.0/8")));
  service.finalize(2000);
  const auto table = service.peers();
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(table->rows.empty());
  EXPECT_EQ(service.peers_json(false).find("\"asn\""), std::string::npos);
  service.stop();
}

// ---------------------------------------------------------------------------
// Replay-speed independence
// ---------------------------------------------------------------------------

namespace replay {

struct Expected {
  std::vector<mrt::MrtRecord> records;
  std::vector<BeaconEvent> events;
  std::vector<std::pair<Prefix, PeerKey>> emerged;
};

/// Two beacon cycles over two prefixes and two peers, ~8 simulated
/// seconds total, with peer_b losing every withdrawal: small enough
/// that even a paced replay finishes in about a second.
Expected make_stream() {
  Expected x;
  const TimePoint t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  const auto pa = Prefix::parse("100.64.1.0/24");
  const auto pb = Prefix::parse("100.64.2.0/24");
  for (int cycle = 0; cycle < 2; ++cycle) {
    const TimePoint a = t0 + cycle * 4;
    const TimePoint w = a + 2;
    for (const auto& prefix : {pa, pb}) {
      x.events.push_back({prefix, a, w, false});
      x.records.push_back(announce(a, peer_a(), prefix));
      x.records.push_back(announce(a, peer_b(), prefix));
      x.records.push_back(withdraw(w, peer_a(), prefix)); // peer_b loses its
    }
  }
  x.emerged = {{pa, peer_b()}, {pb, peer_b()}};
  return x;
}

std::vector<std::pair<Prefix, PeerKey>> run(const Expected& x, double speed) {
  LiveConfig config;
  config.shards = 4;
  config.block_on_full = true;
  config.detector.threshold = 1;  // one simulated second
  LiveService service(config);
  service.start();
  for (const auto& event : x.events) service.expect(event);
  ReplayFeedSource feed(x.records, speed);
  const auto stats = feed.run(service);
  EXPECT_EQ(stats.records, x.records.size());
  service.finalize();
  auto pairs = service.emerged_pairs();
  EXPECT_EQ(service.drops(), 0u);
  service.stop();
  return pairs;
}

}  // namespace replay

TEST(ObsLiveReplay, PacedReplayMatchesMaxSpeed) {
  const auto x = replay::make_stream();
  const auto flat_out = replay::run(x, 0.0);
  const auto paced = replay::run(x, 10.0);  // ~0.8 s wall
  EXPECT_EQ(flat_out, paced);
  EXPECT_EQ(flat_out, x.emerged);
}

// ---------------------------------------------------------------------------
// Stage latency tracing and readiness
// ---------------------------------------------------------------------------

TEST(ObsLiveLatency, StageHistogramsPopulateThroughThePipeline) {
  // The LatRegistry cells are process-cumulative (other tests in this
  // binary run services too), so assert on the diff around this run.
  obs::LatRegistry& reg = obs::LatRegistry::global();
  const auto ingest_before = reg.get("live.ingest_enqueue").snapshot();
  const auto wait_before = reg.get("live.queue_wait").snapshot();
  const auto detect_before = reg.get("live.detect").snapshot();
  const auto publish_before = reg.get("live.publish").snapshot();
  LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  LiveService service(config);
  service.start();
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  for (int i = 0; i < 64; ++i) {
    const auto prefix = Prefix::parse("10." + std::to_string(i) + ".0.0/16");
    ASSERT_TRUE(service.submit(announce(t0 + i, peer_a(), prefix)));
  }
  service.finalize(t0 + 100);
  service.stop();
  const auto ingest = reg.get("live.ingest_enqueue").snapshot();
  const auto wait = reg.get("live.queue_wait").snapshot();
  const auto detect = reg.get("live.detect").snapshot();
  const auto publish = reg.get("live.publish").snapshot();
  EXPECT_GE(ingest.diff_since(ingest_before).count, 64u);
  // queue_wait also times the expect/advance control items.
  EXPECT_GE(wait.diff_since(wait_before).count, 64u);
  EXPECT_GE(detect.diff_since(detect_before).count, 64u);
  EXPECT_GE(publish.diff_since(publish_before).count, 1u);
}

TEST(ObsLiveLatency, HealthzReadinessTracksSnapshotAge) {
  LiveConfig config;
  config.shards = 1;
  config.block_on_full = true;
  LiveService service(config);
  service.start();
  obs::HttpServer server;
  service.attach_http(server, /*stale_after_seconds=*/0.4);
  ASSERT_TRUE(server.start(0));
  // Workers publish once at startup, then only when records move the
  // state — an idle service goes stale past the threshold.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const std::string stale =
      sse::read_until(server.port(), "/healthz", "\"status\"");
  EXPECT_NE(stale.find("503"), std::string::npos) << stale;
  EXPECT_NE(stale.find("\"status\":\"degraded\""), std::string::npos) << stale;
  EXPECT_NE(stale.find("\"snapshot_age_seconds\""), std::string::npos);
  // One record re-publishes the shard snapshot: ready again.
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  ASSERT_TRUE(
      service.submit(announce(t0, peer_a(), Prefix::parse("10.0.0.0/16"))));
  std::string ok;
  for (int spins = 0; spins < 20; ++spins) {
    ok = sse::read_until(server.port(), "/healthz", "\"status\"");
    if (ok.find("\"status\":\"ok\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_NE(ok.find("200"), std::string::npos) << ok;
  EXPECT_NE(ok.find("\"status\":\"ok\""), std::string::npos) << ok;
  server.stop();
  service.stop();
}

TEST(ObsLiveLatency, LoopbackClientMeasuresEndToEndDelivery) {
  obs::LatRegistry& reg = obs::LatRegistry::global();
  const auto e2e_before = reg.get("live.e2e").snapshot();
  const auto wait_before = reg.get("live.queue_wait").snapshot();
  LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  config.detector.threshold = 5 * kMinute;
  LiveService service(config);
  service.start();
  obs::HttpServer server;
  service.attach_http(server);
  ASSERT_TRUE(server.start(0));
  LoopbackLatencyClient client(server.port());
  ASSERT_TRUE(client.start());
  // A subscriber starts at the channel head, so wait for the stream's
  // response headers: transitions published before them never arrive.
  for (int spins = 0; spins < 200 && client.bytes_read() == 0; ++spins)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // Two peers never withdraw inside the window: two emerge transitions
  // carry ingest_ns stamps through the SSE stream back to the client.
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  const auto prefix = Prefix::parse("2a0d:3dc1:1200::/48");
  service.expect({prefix, t0, t0 + 10 * kMinute, false});
  ASSERT_TRUE(service.submit(announce(t0 + 10, peer_a(), prefix)));
  ASSERT_TRUE(service.submit(announce(t0 + 12, peer_b(), prefix)));
  service.finalize(t0 + 16 * kMinute);
  for (int spins = 0; spins < 100 && client.samples() < 2; ++spins)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GE(client.samples(), 2u);
  EXPECT_GT(client.bytes_read(), 0u);

  // The delivery path surfaces everywhere the issue promises: /latency
  // (JSON and folded), /live/stats stages, and the legacy lag keys.
  const std::string latency =
      sse::read_until(server.port(), "/latency", "live.e2e");
  EXPECT_NE(latency.find("\"live.e2e\""), std::string::npos) << latency;
  EXPECT_NE(latency.find("\"live.queue_wait\""), std::string::npos);
  const std::string folded =
      sse::read_until(server.port(), "/latency?format=folded", "live.e2e;");
  EXPECT_NE(folded.find("live.e2e;count "), std::string::npos) << folded;
  const std::string stats =
      sse::read_until(server.port(), "/live/stats", "\"stages\"");
  EXPECT_NE(stats.find("\"lag_p50\""), std::string::npos);
  EXPECT_NE(stats.find("\"lag_p99\""), std::string::npos);
  EXPECT_NE(stats.find("\"stages\""), std::string::npos);
  EXPECT_NE(stats.find("\"e2e\""), std::string::npos) << stats;

  client.stop();
  server.stop();
  service.stop();
  const auto e2e = reg.get("live.e2e").snapshot().diff_since(e2e_before);
  ASSERT_GE(e2e.count, 2u);
  const double e2e_p50 = e2e.quantile_ns(0.5);
  EXPECT_GT(e2e_p50, 0.0);
  EXPECT_LT(e2e_p50, 5e9);  // sane: well under 5 s on loopback
  // A single hop cannot exceed the journey it is part of.
  const auto wait = reg.get("live.queue_wait").snapshot().diff_since(wait_before);
  ASSERT_FALSE(wait.empty());
  EXPECT_LE(wait.quantile_ns(0.5), e2e_p50);
}

}  // namespace
}  // namespace zombiescope::live
