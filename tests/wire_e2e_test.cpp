// End-to-end tests for the BGP-4 wire subsystem over real loopback
// sockets: session establishment with capability negotiation, the
// malformed-input NOTIFICATION path, graceful-restart ghost retention,
// the bridge's burst writes message by message, the feed's reordering
// of one replay stream after another, and the flagship equivalence
// claim — replaying the longlived2024 archive over wire sessions
// through BgpFeedSource must produce the EXACT (prefix, peer) zombie
// set the batch detector computes from the same archive. The socket
// hop must be semantically invisible.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "beacon/schedule.hpp"
#include "live/bgp_feed.hpp"
#include "live/service.hpp"
#include "mrt/record.hpp"
#include "netbase/reactor.hpp"
#include "netbase/time.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "scenarios/longlived2024.hpp"
#include "wire/bridge.hpp"
#include "wire/message.hpp"
#include "wire/speaker.hpp"
#include "zombie/longlived.hpp"

namespace zombiescope::wire {
namespace {

using netbase::IpAddress;
using netbase::Prefix;
using zombie::PeerKey;

/// Runs a BgpSpeaker's poll loop on its own thread; stops and joins on
/// destruction. Handlers must be installed before start().
struct SpeakerThread {
  BgpSpeaker speaker;
  std::thread thread;

  explicit SpeakerThread(SpeakerConfig config)
      : speaker(config, /*listen=*/true, /*port=*/0) {}

  void start() {
    thread = std::thread([this] { speaker.run(); });
  }

  ~SpeakerThread() {
    speaker.stop();
    if (thread.joinable()) thread.join();
  }
};

/// Waits until `pred` holds, polling; false on timeout.
bool wait_for(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

void send_all(int fd, const std::vector<std::uint8_t>& wire) {
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off, 0);
    ASSERT_GT(n, 0) << "send failed";
    off += static_cast<std::size_t>(n);
  }
}

TEST(WireE2E, LoopbackSessionEstablishesAndDeliversUpdates) {
  SpeakerConfig config;
  config.local_asn = 64999;
  SpeakerThread harness(config);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::pair<SessionRef, bgp::UpdateMessage>> updates;
  harness.speaker.on_update([&](const SessionRef& ref, bgp::UpdateMessage&& update,
                                std::chrono::steady_clock::time_point) {
    std::lock_guard<std::mutex> lock(mutex);
    updates.emplace_back(ref, std::move(update));
    cv.notify_all();
  });
  harness.start();

  // A bridged client: capability 240 carries the logical peer address
  // of the monitor this loopback session re-enacts.
  const auto logical = IpAddress::parse("2001:7f8:4::8447:1");
  const int fd = wire_connect("127.0.0.1", harness.speaker.port());
  wire_handshake(fd, 65001, 0xc0000301, 90, logical);

  bgp::UpdateMessage update;
  update.announced.push_back(Prefix::parse("2a0d:3dc1:1851::/48"));
  update.attributes.as_path = bgp::AsPath{65001, 64511, 210312};
  send_all(fd, encode_update(update));

  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return !updates.empty(); }));
    const auto& [ref, received] = updates.front();
    EXPECT_EQ(ref.peer_asn, 65001u);
    EXPECT_TRUE(ref.bridged);
    EXPECT_EQ(ref.peer_address, logical)
        << "PeerKey identity must be the logical address, not 127.0.0.1";
    EXPECT_EQ(received.announced, update.announced);
    EXPECT_EQ(received.attributes.as_path, update.attributes.as_path);
  }

  // The speaker rebuilds its snapshot after the poll turn that ran the
  // update callback, so wait for the route to show there too.
  ASSERT_TRUE(wait_for([&] {
    const auto rows = harness.speaker.snapshot();
    return harness.speaker.established_count() == 1 && rows.size() == 1 &&
           rows[0].routes == 1;
  }));
  const auto rows = harness.speaker.snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].state, "Established");
  EXPECT_TRUE(rows[0].bridged);
  EXPECT_EQ(rows[0].peer_asn, 65001u);
  EXPECT_EQ(rows[0].peer_address, logical.to_string());
  EXPECT_EQ(rows[0].routes, 1u);
  EXPECT_EQ(rows[0].negotiated_hold, 90);

  const std::string json = harness.speaker.sessions_json();
  EXPECT_NE(json.find("\"established\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"asn\":65001"), std::string::npos) << json;

  ::close(fd);
  EXPECT_TRUE(wait_for([&] { return harness.speaker.snapshot().empty(); }))
      << "EOF must tear the session down";
}

TEST(WireE2E, MalformedInputDrawsTheExactNotification) {
  SpeakerConfig config;
  SpeakerThread harness(config);
  harness.start();

  const int fd = wire_connect("127.0.0.1", harness.speaker.port());
  wire_handshake(fd, 65002, 0xc0000302, 90, std::nullopt);

  // 19 bytes of zeros: a complete header with a corrupt marker. The
  // speaker owes us NOTIFICATION Message Header Error / Connection Not
  // Synchronized, then the close.
  send_all(fd, std::vector<std::uint8_t>(kHeaderSize, 0x00));

  FrameReader reader;
  std::optional<NotificationMessage> notification;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF: speaker closed after notifying
    reader.append(reinterpret_cast<const std::uint8_t*>(buf),
                  static_cast<std::size_t>(n));
    while (auto frame = reader.next()) {
      if (decode_header(*frame).type == bgp::MessageType::kNotification)
        notification = NotificationMessage::decode(*frame);
    }
    if (notification.has_value()) break;
  }
  ASSERT_TRUE(notification.has_value());
  EXPECT_EQ(notification->code, NotifyCode::kMessageHeaderError);
  EXPECT_EQ(notification->subcode, kHdrConnectionNotSynchronized);
  ::close(fd);
  EXPECT_TRUE(wait_for([&] { return harness.speaker.snapshot().empty(); }));
}

TEST(WireE2E, GrRetentionMakesAGhostThenFlushesAtRestartExpiry) {
  SpeakerConfig config;
  config.retention.gr_enabled = true;
  SpeakerThread harness(config);

  std::mutex mutex;
  std::condition_variable cv;
  bool retained_drop = false;
  std::vector<Prefix> flushed;
  FlushReason flush_reason = FlushReason::kSessionLoss;
  harness.speaker.on_state([&](const SessionRef&, bgp::SessionState,
                               bgp::SessionState new_state, bool retained) {
    if (new_state != bgp::SessionState::kIdle) return;
    std::lock_guard<std::mutex> lock(mutex);
    retained_drop = retained;
    cv.notify_all();
  });
  harness.speaker.on_flush([&](const SessionRef&, std::vector<Prefix>&& prefixes,
                               FlushReason reason) {
    std::lock_guard<std::mutex> lock(mutex);
    flushed = std::move(prefixes);
    flush_reason = reason;
    cv.notify_all();
  });
  harness.start();

  // Hand-rolled handshake so the OPEN advertises graceful restart with
  // a 1-second window — the shortest flush the test can wait for.
  const int fd = wire_connect("127.0.0.1", harness.speaker.port());
  OpenMessage open;
  open.asn = 65003;
  open.bgp_id = 0xc0000303;
  open.hold_time = 90;
  open.graceful_restart = GracefulRestart{false, 1, {{1, 1, true}}};
  send_all(fd, open.encode());
  send_all(fd, encode_keepalive());
  ASSERT_TRUE(wait_for([&] { return harness.speaker.established_count() == 1; }));

  const Prefix prefix = Prefix::parse("198.51.100.0/24");
  bgp::UpdateMessage update;
  update.announced.push_back(prefix);
  update.attributes.as_path = bgp::AsPath{65003};
  update.attributes.next_hop = IpAddress::parse("192.0.2.9");
  send_all(fd, encode_update(update));
  ASSERT_TRUE(wait_for([&] {
    const auto rows = harness.speaker.snapshot();
    return rows.size() == 1 && rows[0].routes == 1;
  }));

  // The peer dies without a word: GR retains instead of flushing.
  ::close(fd);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return retained_drop; }))
        << "the drop must be reported retained=true";
  }
  // While retained, the session lives on as a ghost row.
  ASSERT_TRUE(wait_for([&] {
    const auto rows = harness.speaker.snapshot();
    return rows.size() == 1 && rows[0].state == "GrStale" &&
           rows[0].stale_routes == 1;
  })) << "expected a GrStale ghost holding the route";

  // ...until the 1-second restart window expires and the route comes
  // back out through the flush callback.
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return !flushed.empty(); }));
    EXPECT_EQ(flushed, std::vector<Prefix>{prefix});
    EXPECT_EQ(flush_reason, FlushReason::kRestartExpired);
  }
  EXPECT_TRUE(wait_for([&] { return harness.speaker.snapshot().empty(); }));
}

std::uint64_t wire_counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

TEST(WireE2E, DialedSessionEstablishesAndTheListenerSeesItsCease) {
  SpeakerConfig listener_config;
  listener_config.local_asn = 64999;
  SpeakerThread listener(listener_config);
  listener.start();

  SpeakerConfig dialer_config;
  dialer_config.local_asn = 65010;
  dialer_config.bgp_id = 0xc000020a;
  BgpSpeaker dialer(dialer_config, /*listen=*/false, /*port=*/0);
  dialer.connect_to("127.0.0.1", listener.speaker.port());
  std::thread dial_thread([&] { dialer.run(); });

  ASSERT_TRUE(wait_for([&] {
    return dialer.established_count() == 1 &&
           listener.speaker.established_count() == 1;
  }));
  const auto dialer_rows = dialer.snapshot();
  ASSERT_EQ(dialer_rows.size(), 1u);
  EXPECT_FALSE(dialer_rows[0].passive);
  EXPECT_EQ(dialer_rows[0].peer_asn, 64999u);
  const auto listener_rows = listener.speaker.snapshot();
  ASSERT_EQ(listener_rows.size(), 1u);
  EXPECT_TRUE(listener_rows[0].passive);
  EXPECT_EQ(listener_rows[0].peer_asn, 65010u);

  // Stopping the dialer says Cease/Administrative Shutdown; the
  // listener journals the NOTIFICATION and drops the session.
  obs::Journal& journal = obs::Journal::global();
  const std::uint32_t categories = journal.enabled_categories();
  journal.set_enabled_categories(obs::kCatSession);
  dialer.stop();
  dial_thread.join();
  EXPECT_TRUE(dialer.snapshot().empty());
  EXPECT_TRUE(wait_for([&] { return listener.speaker.snapshot().empty(); }));
  journal.set_enabled_categories(categories);
  bool saw_cease = false;
  for (const obs::JournalEvent& event : journal.tail(obs::Journal::kRecentCapacity)) {
    saw_cease |= event.type == obs::JournalEventType::kWireNotifyReceived &&
                 event.peer_asn == 65010u &&
                 event.a == static_cast<std::int64_t>(NotifyCode::kCease) &&
                 event.b == kCeaseAdminShutdown;
  }
  EXPECT_TRUE(saw_cease) << "the listener never read the dialer's Cease";
}

TEST(WireE2E, FailedDialIsRetriedAfterConnectRetry) {
  // A loopback port with nothing listening on it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(probe);

  SpeakerConfig config;
  config.connect_retry = 1;
  BgpSpeaker dialer(config, /*listen=*/false, /*port=*/0);
  const auto dials = [] { return wire_counter("zs_wire_sessions_opened_total"); };
  const auto teardowns = [] { return wire_counter("zs_wire_sessions_closed_total"); };
  const std::uint64_t dials0 = dials();
  const std::uint64_t teardowns0 = teardowns();
  dialer.connect_to("127.0.0.1", ntohs(addr.sin_port));
  std::thread dial_thread([&] { dialer.run(); });

  // The first dial fails and its session is torn down...
  EXPECT_TRUE(wait_for([&] { return dials() >= dials0 + 1 && teardowns() >= teardowns0 + 1; }));
  // ...then the peer is dialed again on the ConnectRetry cadence: once
  // per connect_retry, not in a tight loop.
  std::vector<std::chrono::steady_clock::time_point> redials;
  for (std::uint64_t n = 2; n <= 3; ++n) {
    EXPECT_TRUE(wait_for([&] { return dials() >= dials0 + n; }, 5000));
    redials.push_back(std::chrono::steady_clock::now());
  }
  const auto gap = redials[1] - redials[0];
  EXPECT_GE(gap, std::chrono::milliseconds(800));
  EXPECT_LE(gap, std::chrono::milliseconds(2500));
  EXPECT_EQ(dialer.established_count(), 0u);
  dialer.stop();
  dial_thread.join();
}

// ------------------------------------------------- bridge streams

using PairSet = std::vector<std::pair<Prefix, PeerKey>>;

/// A synthetic archive over three peers (two IPv4 sessions, one IPv6):
/// `count` single-prefix announcements and withdrawals of both
/// families, one state change a third of the way in and, two thirds of
/// the way in, one UPDATE of 1,500 /24s, too big for one message.
std::vector<mrt::MrtRecord> three_peer_archive(std::size_t count) {
  const std::array<std::pair<bgp::Asn, IpAddress>, 3> peers = {
      {{65101, IpAddress::parse("192.0.2.11")},
       {65102, IpAddress::parse("2001:db8::12")},
       {65103, IpAddress::parse("198.51.100.13")}}};
  const netbase::TimePoint start = netbase::utc(2024, 6, 1);
  std::vector<mrt::MrtRecord> records;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& [asn, address] = peers[i % peers.size()];
    const netbase::TimePoint t = start + static_cast<netbase::Duration>(i / 4);
    mrt::Bgp4mpMessage m;
    m.timestamp = t;
    m.peer_asn = asn;
    m.local_asn = 64999;
    m.peer_address = address;
    m.local_address = address;
    std::array<std::uint8_t, 16> v6{0x2a, 0x0d, 0x3d, 0xc1};
    v6[4] = static_cast<std::uint8_t>(i >> 8);
    v6[5] = static_cast<std::uint8_t>(i);
    const Prefix prefix =
        i % 2 == 0 ? Prefix(IpAddress::v6(v6), 48)
                   : Prefix(IpAddress::v4(static_cast<std::uint32_t>(0x0a000000 + ((i % 4096) << 8))),
                            24);
    if (i % 5 == 4) {
      m.update.withdrawn.push_back(prefix);
    } else {
      m.update.announced.push_back(prefix);
      m.update.attributes.as_path =
          bgp::AsPath{asn, 3356, static_cast<bgp::Asn>(64500 + i % 7)};
      m.update.attributes.next_hop =
          prefix.is_v4() ? IpAddress::parse("192.0.2.1") : IpAddress::parse("2001:db8::1");
      if (i % 3 == 0) m.update.attributes.communities = {{3356, 100}, {65535, 666}};
    }
    records.push_back(std::move(m));
    if (i == count / 3) {
      mrt::Bgp4mpStateChange change;
      change.timestamp = t;
      change.peer_asn = asn;
      change.local_asn = 64999;
      change.peer_address = address;
      change.local_address = address;
      change.old_state = bgp::SessionState::kEstablished;
      change.new_state = bgp::SessionState::kIdle;
      records.push_back(change);
    }
    if (i == 2 * count / 3) {
      mrt::Bgp4mpMessage big;
      big.timestamp = t;
      big.peer_asn = asn;
      big.local_asn = 64999;
      big.peer_address = address;
      big.local_address = address;
      for (std::uint32_t k = 0; k < 1500; ++k)
        big.update.announced.emplace_back(IpAddress::v4(0xac100000 + (k << 8)), 24);
      big.update.attributes.as_path = bgp::AsPath{asn, 174};
      big.update.attributes.next_hop = IpAddress::parse("192.0.2.1");
      records.push_back(std::move(big));
    }
  }
  return records;
}

TEST(WireE2E, BurstReplayDeliversEveryUpdateIntact) {
  const std::vector<mrt::MrtRecord> records = three_peer_archive(6000);
  ASSERT_EQ(std::count_if(records.begin(), records.end(),
                          [](const mrt::MrtRecord& record) {
                            const auto* m = std::get_if<mrt::Bgp4mpMessage>(&record);
                            return m != nullptr && m->update.encode().size() > kMaxMessageSize;
                          }),
            1);

  struct Delivered {
    SessionRef ref;
    BridgeStamp stamp;
    bgp::UpdateMessage update;
  };
  std::mutex mutex;
  std::vector<Delivered> delivered;
  SpeakerThread harness(SpeakerConfig{});
  harness.speaker.on_update([&](const SessionRef& ref, bgp::UpdateMessage&& update,
                                std::chrono::steady_clock::time_point) {
    const auto stamp = extract_stamp(update);
    std::lock_guard<std::mutex> lock(mutex);
    delivered.push_back({ref, stamp.value_or(BridgeStamp{0, ~0ull}), std::move(update)});
  });
  harness.start();

  const BridgeStats stats = replay_over_wire(records, "127.0.0.1", harness.speaker.port());
  EXPECT_EQ(stats.sessions, 3u);
  EXPECT_EQ(stats.state_changes_sent, 1u);
  EXPECT_EQ(stats.splits, 1u);
  const std::size_t sent = stats.updates_sent + stats.state_changes_sent;
  EXPECT_EQ(stats.messages_sent, sent + stats.sessions);  // and one Cease each
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard<std::mutex> lock(mutex);
    return delivered.size() >= sent;
  }, 30000));
  EXPECT_TRUE(wait_for([&] { return harness.speaker.snapshot().empty(); }));

  // The stamps are exactly 0..N-1: nothing lost, nothing repeated.
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(delivered.size(), sent);
  std::sort(delivered.begin(), delivered.end(), [](const Delivered& a, const Delivered& b) {
    return a.stamp.sequence < b.stamp.sequence;
  });
  for (std::size_t i = 0; i < delivered.size(); ++i)
    ASSERT_EQ(delivered[i].stamp.sequence, i);

  // In stamp order, each delivered update is its archive update, on its
  // peer's session, with its archive time. The oversize UPDATE arrives
  // as wire-legal parts that add up to it.
  std::size_t next = 0;
  for (const mrt::MrtRecord& record : records) {
    if (const auto* change = std::get_if<mrt::Bgp4mpStateChange>(&record)) {
      Delivered& got = delivered[next++];
      EXPECT_EQ(got.ref.peer_address, change->peer_address);
      EXPECT_EQ(got.stamp.timestamp, change->timestamp);
      EXPECT_EQ(extract_state(got.update),
                std::make_pair(static_cast<std::uint16_t>(change->old_state),
                               static_cast<std::uint16_t>(change->new_state)));
      EXPECT_EQ(got.update, bgp::UpdateMessage{});
      continue;
    }
    const auto& message = std::get<mrt::Bgp4mpMessage>(record);
    bgp::UpdateMessage joined;
    while (joined.announced.size() + joined.withdrawn.size() <
           message.update.announced.size() + message.update.withdrawn.size()) {
      ASSERT_LT(next, delivered.size());
      const Delivered& got = delivered[next++];
      EXPECT_EQ(got.ref.peer_asn, message.peer_asn);
      EXPECT_EQ(got.ref.peer_address, message.peer_address);
      EXPECT_EQ(got.stamp.timestamp, message.timestamp);
      EXPECT_LE(got.update.encode().size(), kMaxMessageSize);
      if (got.update.is_announcement()) joined.attributes = got.update.attributes;
      joined.announced.insert(joined.announced.end(), got.update.announced.begin(),
                              got.update.announced.end());
      joined.withdrawn.insert(joined.withdrawn.end(), got.update.withdrawn.begin(),
                              got.update.withdrawn.end());
    }
    EXPECT_EQ(joined, message.update);
  }
  EXPECT_EQ(next, delivered.size());
}

/// One bridge session of a hand-made stream: the handshake a replay
/// does, stamped UPDATEs, then Cease.
class BridgeClient {
 public:
  BridgeClient(std::uint16_t port, bgp::Asn asn, const IpAddress& address)
      : fd_(wire_connect("127.0.0.1", port)) {
    wire_handshake(fd_, asn, asn, 3600, address);
  }
  ~BridgeClient() { close(); }

  void send(bgp::UpdateMessage update, netbase::TimePoint timestamp, std::uint64_t sequence) {
    stamp_update(update, BridgeStamp{timestamp, sequence});
    send_all(fd_, encode_update(update));
  }

  /// Says Cease and, as replay_over_wire does, reads until the speaker
  /// closes: by then it has handled everything this session sent.
  void close() {
    if (fd_ < 0) return;
    NotificationMessage goodbye;
    goodbye.code = NotifyCode::kCease;
    goodbye.subcode = kCeaseAdminShutdown;
    send_all(fd_, goodbye.encode());
    char buf[4096];
    while (netbase::recv_some(fd_, buf, sizeof(buf)) > 0) {
    }
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

bgp::UpdateMessage announce(const Prefix& prefix, std::initializer_list<bgp::Asn> path) {
  bgp::UpdateMessage update;
  update.announced.push_back(prefix);
  update.attributes.as_path = bgp::AsPath(path);
  update.attributes.next_hop = IpAddress::parse("2001:db8::ff");
  return update;
}

bgp::UpdateMessage withdraw(const Prefix& prefix) {
  bgp::UpdateMessage update;
  update.withdrawn.push_back(prefix);
  return update;
}

/// A one-shard service behind a BgpFeedSource whose run() is on its
/// own thread; stop() ends the run and returns its stats.
struct FeedRig {
  explicit FeedRig(netbase::Duration threshold)
      : service([threshold] {
          live::LiveConfig config;
          config.shards = 1;
          config.block_on_full = true;
          config.detector.threshold = threshold;
          return config;
        }()),
        feed(SpeakerConfig{}, /*port=*/0) {
    service.start();
  }
  ~FeedRig() {
    stop();
    service.stop();
  }

  void start() {
    thread = std::thread([this] { stats = feed.run(service); });
  }
  void stop() {
    if (!thread.joinable()) return;
    feed.stop();
    thread.join();
  }
  bool sessions_gone() {
    return wait_for([&] { return feed.speaker().snapshot().empty(); });
  }
  std::uint64_t updates_in(bgp::Asn asn) {
    for (const SessionSnapshot& row : feed.speaker().snapshot())
      if (row.peer_asn == asn) return row.updates_in;
    return 0;
  }

  live::LiveService service;
  live::BgpFeedSource feed;
  live::FeedSource::RunStats stats;
  std::thread thread;
};

TEST(WireE2E, SecondBridgeStreamIsReorderedFromSequenceZero) {
  // Each stream: peer A (AS65001) announces the day's beacon prefix and
  // withdraws it 60 s before the 90-minute deadline (stamps 0 and 1);
  // peer B (AS65002) sends an update 60 s after the deadline (stamp 2),
  // and sends it first. Reordered, A's withdrawal is in time and no
  // zombie emerges. Submitted as it arrives, B's update passes the
  // deadline before A has even announced, and A's late announcement
  // then emerges as a zombie that batch detection does not report.
  const netbase::Duration threshold = 90 * netbase::kMinute;
  const IpAddress a_address = IpAddress::parse("2001:db8::a");
  const IpAddress b_address = IpAddress::parse("2001:db8::b");
  const Prefix other = Prefix::parse("2a0d:3dc1:ffff::/48");
  std::vector<beacon::BeaconEvent> events;
  std::vector<mrt::MrtRecord> archive;  // the same records, in stamp order
  FeedRig rig(threshold);
  for (int day = 0; day < 2; ++day) {
    beacon::BeaconEvent event;
    event.prefix = Prefix::parse(day == 0 ? "2a0d:3dc1:1000::/48" : "2a0d:3dc1:2000::/48");
    event.announce_time = netbase::utc(2024, 6, 10 + day);
    event.withdraw_time = event.announce_time + 2 * netbase::kHour;
    events.push_back(event);
    rig.service.expect(event);
  }
  rig.start();

  const auto record = [](bgp::Asn asn, const IpAddress& address, netbase::TimePoint t,
                         bgp::UpdateMessage update) {
    mrt::Bgp4mpMessage m;
    m.timestamp = t;
    m.peer_asn = asn;
    m.local_asn = SpeakerConfig{}.local_asn;
    m.peer_address = address;
    m.update = std::move(update);
    return mrt::MrtRecord{std::move(m)};
  };
  for (const beacon::BeaconEvent& event : events) {
    const netbase::TimePoint deadline = event.withdraw_time + threshold;
    const std::vector<mrt::MrtRecord> stream = {
        record(65001, a_address, event.announce_time + 60, announce(event.prefix, {65001, 210312})),
        record(65001, a_address, deadline - 60, withdraw(event.prefix)),
        record(65002, b_address, deadline + 60, announce(other, {65002, 64511}))};
    archive.insert(archive.end(), stream.begin(), stream.end());
    const auto& a0 = std::get<mrt::Bgp4mpMessage>(stream[0]);
    const auto& a1 = std::get<mrt::Bgp4mpMessage>(stream[1]);
    const auto& b2 = std::get<mrt::Bgp4mpMessage>(stream[2]);

    BridgeClient b(rig.feed.port(), 65002, b_address);
    b.send(b2.update, b2.timestamp, 2);
    ASSERT_TRUE(wait_for([&] { return rig.updates_in(65002) == 1; }))
        << "stamp 2 must reach the feed before stamps 0 and 1 are sent";
    BridgeClient a(rig.feed.port(), 65001, a_address);
    a.send(a0.update, a0.timestamp, 0);
    a.send(a1.update, a1.timestamp, 1);
    a.close();
    b.close();
    ASSERT_TRUE(rig.sessions_gone());
  }
  rig.stop();
  EXPECT_EQ(rig.stats.records, 6u);

  rig.service.finalize();
  zombie::LongLivedZombieDetector detector{zombie::LongLivedConfig{}};
  std::set<std::pair<Prefix, PeerKey>> batch;
  for (const auto& outbreak : detector.detect(archive, events, threshold).outbreaks)
    for (const auto& route : outbreak.routes) batch.insert({outbreak.prefix, route.peer});
  EXPECT_TRUE(batch.empty());
  const auto live_pairs = rig.service.emerged_pairs();
  EXPECT_EQ(live_pairs, PairSet(batch.begin(), batch.end()))
      << "the second stream was not reordered";
}

TEST(WireE2E, StreamMissingSequenceZeroIsSubmittedWhenItsSessionsClose) {
  // A client that dies before stamp 0 is on the wire leaves a gap the
  // feed cannot fill. Once the stream's last session is gone, its
  // parked records go to the service, in stamp order, without waiting
  // for the feed to stop.
  FeedRig rig(90 * netbase::kMinute);
  rig.start();
  {
    BridgeClient client(rig.feed.port(), 65001, IpAddress::parse("2001:db8::a"));
    const netbase::TimePoint t = netbase::utc(2024, 6, 10);
    client.send(announce(Prefix::parse("2a0d:3dc1:1000::/48"), {65001}), t, 1);
    client.send(withdraw(Prefix::parse("2a0d:3dc1:1000::/48")), t + 60, 2);
  }
  ASSERT_TRUE(rig.sessions_gone());
  EXPECT_TRUE(wait_for([&] { return rig.service.submitted() == 2; }))
      << rig.service.submitted() << " of 2 parked records submitted before stop()";
  rig.stop();
  EXPECT_EQ(rig.stats.records, 2u);
}

TEST(WireE2E, BridgeSessionCountsFromItsOpen) {
  // Session A sends its OPEN and reads the speaker's OPEN and KEEPALIVE
  // but holds back its own KEEPALIVE. Session B handshakes, sends stamp
  // 1 (an update past the deadline) and closes. A is open, so the
  // stream is not over and stamp 1 must wait. Then A sends its
  // KEEPALIVE and stamp 0, its announcement of the beacon. Submitted in
  // stamp order, the announcement holds the route when stamp 1 fires
  // the deadline, and the zombie is raised at the deadline. Stamp 1
  // first would fire the deadline with no route held, and the late
  // announcement would raise the zombie at its own time.
  const netbase::Duration threshold = 90 * netbase::kMinute;
  const IpAddress a_address = IpAddress::parse("2001:db8::a");
  beacon::BeaconEvent event;
  event.prefix = Prefix::parse("2a0d:3dc1:1000::/48");
  event.announce_time = netbase::utc(2024, 6, 10);
  event.withdraw_time = event.announce_time + 2 * netbase::kHour;
  const netbase::TimePoint deadline = event.withdraw_time + threshold;
  FeedRig rig(threshold);
  rig.service.expect(event);
  rig.start();

  const int a = wire_connect("127.0.0.1", rig.feed.port());
  OpenMessage open;
  open.asn = 65001;
  open.hold_time = 3600;
  open.bgp_id = 65001;
  open.cap_four_octet_asn = true;
  open.multiprotocol = {{1, 1}, {2, 1}};
  open.bridge_peer_address = a_address;
  send_all(a, open.encode());
  FrameReader reader;
  bool saw_open = false;
  bool saw_keepalive = false;
  char buf[4096];
  while (!saw_open || !saw_keepalive) {
    const std::ptrdiff_t n = netbase::recv_some(a, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "the speaker closed session A during its handshake";
    reader.append(reinterpret_cast<const std::uint8_t*>(buf), static_cast<std::size_t>(n));
    while (auto frame = reader.next()) {
      const bgp::MessageType type = decode_header(*frame).type;
      saw_open = saw_open || type == bgp::MessageType::kOpen;
      saw_keepalive = saw_keepalive || type == bgp::MessageType::kKeepalive;
    }
  }

  {
    BridgeClient b(rig.feed.port(), 65002, IpAddress::parse("2001:db8::b"));
    b.send(announce(Prefix::parse("2a0d:3dc1:ffff::/48"), {65002, 64511}), deadline + 60, 1);
    b.close();
  }

  send_all(a, encode_keepalive());
  bgp::UpdateMessage update = announce(event.prefix, {65001, 210312});
  stamp_update(update, BridgeStamp{event.announce_time + 60, 0});
  send_all(a, encode_update(update));
  NotificationMessage goodbye;
  goodbye.code = NotifyCode::kCease;
  goodbye.subcode = kCeaseAdminShutdown;
  send_all(a, goodbye.encode());
  while (netbase::recv_some(a, buf, sizeof(buf)) > 0) {
  }
  ::close(a);
  ASSERT_TRUE(rig.sessions_gone());
  rig.stop();
  EXPECT_EQ(rig.stats.records, 2u);

  rig.service.finalize();
  const auto zombies = rig.service.zombies();
  ASSERT_EQ(zombies.size(), 1u);
  EXPECT_EQ(zombies[0].prefix, event.prefix);
  EXPECT_EQ(zombies[0].peer.address, a_address);
  EXPECT_EQ(zombies[0].raised_at, deadline) << "stamp 1 was submitted before stamp 0";
}

// ------------------------------------------------- the equivalence run

PairSet batch_pairs(const scenarios::LongLived2024Output& out,
                    netbase::Duration threshold) {
  zombie::LongLivedZombieDetector detector{zombie::LongLivedConfig{}};
  const auto result = detector.detect(out.updates, out.events, threshold);
  std::set<std::pair<Prefix, PeerKey>> merged;
  for (const auto& outbreak : result.outbreaks) {
    for (const auto& route : outbreak.routes) {
      merged.insert({outbreak.prefix, route.peer});
    }
  }
  return {merged.begin(), merged.end()};
}

class WireE2EReplay : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenarios::LongLived2024Spec spec;
    output_ = new scenarios::LongLived2024Output(
        scenarios::run_longlived2024(spec));
  }
  static void TearDownTestSuite() {
    delete output_;
    output_ = nullptr;
  }

  static scenarios::LongLived2024Output* output_;
};

scenarios::LongLived2024Output* WireE2EReplay::output_ = nullptr;

TEST_F(WireE2EReplay, WireReplayMatchesBatchDetectorExactly) {
  const netbase::Duration threshold = 90 * netbase::kMinute;
  const auto batch = batch_pairs(*output_, threshold);
  ASSERT_FALSE(batch.empty()) << "scenario produced no zombies to compare";

  live::LiveConfig live_config;
  live_config.shards = 4;
  live_config.block_on_full = true;  // equivalence demands zero drops
  live_config.detector.threshold = threshold;
  live::LiveService service(live_config);
  service.start();
  for (const auto& event : output_->events) service.expect(event);

  // Generous hold: a flat-out replay must never lose a session to the
  // hold timer while the kernel schedules other sockets.
  SpeakerConfig speaker_config;
  speaker_config.local_asn = 64999;
  speaker_config.hold_time = 3600;
  speaker_config.keepalive_interval = 1200;
  live::BgpFeedSource feed(speaker_config, /*port=*/0);
  ASSERT_GT(feed.port(), 0);

  live::FeedSource::RunStats stats;
  std::thread feeder([&] { stats = feed.run(service); });

  BridgeOptions options;
  options.hold_time = 3600;
  const BridgeStats bridge =
      replay_over_wire(output_->updates, "127.0.0.1", feed.port(), options);
  EXPECT_GT(bridge.sessions, 0u);
  EXPECT_GT(bridge.updates_sent, 0u);

  // Every session said Cease; once the speaker has digested them all
  // the snapshot drains to empty and the feed can stop.
  EXPECT_TRUE(wait_for([&] { return feed.speaker().snapshot().empty(); },
                       /*timeout_ms=*/120000))
      << "sessions still open after replay finished";
  feed.stop();
  feeder.join();

  // Every wire message the bridge sent became exactly one submitted
  // record: nothing lost, nothing reordered out of existence.
  EXPECT_EQ(stats.records, bridge.updates_sent + bridge.state_changes_sent);

  service.finalize();
  EXPECT_EQ(service.drops(), 0u);
  EXPECT_EQ(service.processed(), service.submitted());
  const auto live_pairs = service.emerged_pairs();
  service.stop();

  EXPECT_EQ(live_pairs, batch)
      << "the socket hop changed the zombie set: wire replay is not "
         "equivalent to archive replay";
}

}  // namespace
}  // namespace zombiescope::wire
