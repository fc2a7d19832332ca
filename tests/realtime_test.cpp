// Tests for the streaming (real-time) zombie detector.

#include <gtest/gtest.h>

#include <set>

#include "random_stream.hpp"
#include "zombie/realtime.hpp"

namespace zombiescope::zombie {
namespace {

using beacon::BeaconEvent;
using netbase::IpAddress;
using netbase::kHour;
using netbase::kMinute;
using netbase::Prefix;
using netbase::utc;

const Prefix kBeacon = Prefix::parse("2a0d:3dc1:1200::/48");

PeerKey peer_a() { return {64500, IpAddress::parse("192.0.2.1")}; }
PeerKey peer_b() { return {64501, IpAddress::parse("192.0.2.2")}; }

mrt::Bgp4mpMessage announce(netbase::TimePoint t, const PeerKey& peer, const Prefix& prefix) {
  mrt::Bgp4mpMessage m;
  m.timestamp = t;
  m.peer_asn = peer.asn;
  m.peer_address = peer.address;
  m.local_asn = 12654;
  m.local_address = IpAddress::parse("193.0.4.28");
  m.update.announced.push_back(prefix);
  m.update.attributes.as_path = bgp::AsPath{peer.asn, 25091, 8298, 210312};
  m.update.attributes.next_hop = peer.address;
  return m;
}

mrt::Bgp4mpMessage withdraw(netbase::TimePoint t, const PeerKey& peer, const Prefix& prefix) {
  mrt::Bgp4mpMessage m;
  m.timestamp = t;
  m.peer_asn = peer.asn;
  m.peer_address = peer.address;
  m.local_asn = 12654;
  m.local_address = IpAddress::parse("193.0.4.28");
  m.update.withdrawn.push_back(prefix);
  return m;
}

BeaconEvent event_at(netbase::TimePoint t) {
  return {kBeacon, t, t + 15 * kMinute, false};
}

struct Harness {
  RealTimeZombieDetector detector;
  std::vector<ZombieAlert> alerts;
  std::vector<ZombieResolution> resolutions;

  Harness() : detector(RealTimeConfig{}) {
    detector.on_alert([this](const ZombieAlert& a) { alerts.push_back(a); });
    detector.on_resolution([this](const ZombieResolution& r) { resolutions.push_back(r); });
  }
};

TEST(RealTime, AlertsAtDeadlineForStuckRoute) {
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  h.detector.ingest(announce(t0 + 12, peer_b(), kBeacon));
  h.detector.ingest(withdraw(t0 + 16 * kMinute, peer_b(), kBeacon));
  EXPECT_TRUE(h.alerts.empty());

  h.detector.advance(t0 + 15 * kMinute + 89 * kMinute);
  EXPECT_TRUE(h.alerts.empty()) << "fired before the threshold";
  h.detector.advance(t0 + 15 * kMinute + 90 * kMinute);
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].peer, peer_a());
  EXPECT_EQ(h.alerts[0].prefix, kBeacon);
  EXPECT_EQ(h.alerts[0].withdrawn_at, t0 + 15 * kMinute);
  ASSERT_EQ(h.detector.active_zombies().size(), 1u);
  EXPECT_EQ(h.detector.active_zombies()[0].raised_at, t0 + 15 * kMinute + 90 * kMinute);
}

TEST(RealTime, ResolutionReportsStuckDuration) {
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const auto w = t0 + 15 * kMinute;
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  h.detector.advance(w + 90 * kMinute);
  ASSERT_EQ(h.alerts.size(), 1u);
  // The stuck route finally clears 4 hours after the withdrawal.
  h.detector.ingest(withdraw(w + 4 * kHour, peer_a(), kBeacon));
  ASSERT_EQ(h.resolutions.size(), 1u);
  EXPECT_EQ(h.resolutions[0].stuck_for(), 4 * kHour);
  EXPECT_TRUE(h.detector.active_zombies().empty());
}

TEST(RealTime, SessionFlushResolves) {
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  h.detector.advance(t0 + 15 * kMinute + 90 * kMinute);
  ASSERT_EQ(h.alerts.size(), 1u);

  mrt::Bgp4mpStateChange drop;
  drop.timestamp = t0 + 3 * kHour;
  drop.peer_asn = peer_a().asn;
  drop.peer_address = peer_a().address;
  drop.old_state = bgp::SessionState::kEstablished;
  drop.new_state = bgp::SessionState::kIdle;
  h.detector.ingest(drop);
  EXPECT_EQ(h.resolutions.size(), 1u);
}

TEST(RealTime, LateAnnouncementAfterDeadlineAlertsImmediately) {
  // The resurrection case: the route was withdrawn in time, but a new
  // announcement arrives long after the deadline.
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const auto w = t0 + 15 * kMinute;
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  h.detector.ingest(withdraw(w + 5 * kMinute, peer_a(), kBeacon));
  h.detector.advance(w + 90 * kMinute);
  EXPECT_TRUE(h.alerts.empty());
  // 170 minutes after the withdrawal: a new announcement (paper §5.1).
  h.detector.ingest(announce(w + 170 * kMinute, peer_a(), kBeacon));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].raised_at, w + 170 * kMinute);
  ASSERT_EQ(h.detector.active_zombies().size(), 1u);
  EXPECT_EQ(h.detector.active_zombies()[0].raised_at, w + 170 * kMinute);
}

TEST(RealTime, RecycledPrefixSupersedesWatch) {
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  // The prefix recycles a day later before the stuck route cleared.
  h.detector.advance(t0 + 24 * kHour);
  h.detector.expect(event_at(t0 + 24 * kHour));
  // The old window alerted at its deadline; the recycle supersedes its
  // watch and resolves the stuck route.
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].raised_at, t0 + 15 * kMinute + 90 * kMinute);
  ASSERT_EQ(h.resolutions.size(), 1u);
  EXPECT_EQ(h.resolutions[0].resolved_at, t0 + 24 * kHour);
  EXPECT_TRUE(h.detector.active_zombies().empty());
}

TEST(RealTime, WithdrawalAtExactDeadlineIsInTime) {
  // The batch detector counts an update stamped exactly at withdraw +
  // threshold as in time; ingest() must apply it before that deadline
  // fires. An explicit advance() to the deadline stays inclusive.
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const auto deadline = t0 + 15 * kMinute + 90 * kMinute;
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  h.detector.ingest(announce(t0 + 12, peer_b(), kBeacon));
  h.detector.ingest(withdraw(deadline, peer_a(), kBeacon));
  EXPECT_TRUE(h.alerts.empty());
  h.detector.advance(deadline);
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].peer, peer_b());
  EXPECT_EQ(h.alerts[0].raised_at, deadline);
}

TEST(RealTime, DeadlinesDueTogetherFireInDeadlineOrder) {
  // Prefix order is the reverse of deadline order here, so the firing
  // order shows which one the detector follows.
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const Prefix late = Prefix::parse("2a0d:3dc1:1100::/48");
  const Prefix early = Prefix::parse("2a0d:3dc1:1200::/48");
  const Prefix middle = Prefix::parse("2a0d:3dc1:1300::/48");
  h.detector.expect({late, t0, t0 + 45 * kMinute, false});
  h.detector.expect({early, t0, t0 + 15 * kMinute, false});
  h.detector.expect({middle, t0, t0 + 30 * kMinute, false});
  for (const Prefix& prefix : {late, early, middle})
    h.detector.ingest(announce(t0 + 10, peer_a(), prefix));
  h.detector.advance(t0 + 6 * kHour);
  ASSERT_EQ(h.alerts.size(), 3u);
  EXPECT_EQ(h.alerts[0].prefix, early);
  EXPECT_EQ(h.alerts[1].prefix, middle);
  EXPECT_EQ(h.alerts[2].prefix, late);
  EXPECT_LT(h.alerts[0].raised_at, h.alerts[1].raised_at);
  EXPECT_LT(h.alerts[1].raised_at, h.alerts[2].raised_at);
}

TEST(RealTime, RecycledPrefixOldDeadlineNeverFires) {
  // The prefix recycles before the first watch's deadline: that
  // deadline passes without an alert, and the new watch's still fires.
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const auto t1 = t0 + 30 * kMinute;
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  h.detector.expect(event_at(t1));
  h.detector.ingest(announce(t1 + 10, peer_b(), kBeacon));
  h.detector.advance(t0 + 15 * kMinute + 90 * kMinute);
  EXPECT_TRUE(h.alerts.empty()) << "the superseded watch's deadline fired";
  h.detector.advance(t1 + 15 * kMinute + 90 * kMinute);
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].peer, peer_b());
  EXPECT_EQ(h.alerts[0].withdrawn_at, t1 + 15 * kMinute);
}

TEST(RealTime, DeadlineOnTheRecycleInstantFiresBeforeTheWatchIsReplaced) {
  // A record stamped at the recycle instant opens the recycle before
  // that instant's deadlines fire; the old window's deadline at exactly
  // that instant still fires first, and the recycle then resolves the
  // alert.
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const auto deadline = t0 + 15 * kMinute + 90 * kMinute;
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  h.detector.advance(deadline - 1);
  h.detector.expect(event_at(deadline));
  h.detector.ingest(announce(deadline, peer_b(), kBeacon));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].raised_at, deadline);
  ASSERT_EQ(h.resolutions.size(), 1u);
  EXPECT_EQ(h.resolutions[0].resolved_at, deadline);
  EXPECT_TRUE(h.detector.active_zombies().empty());
}

TEST(RealTime, ReannouncedAlertedRouteUpdatesStuckPath) {
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const auto w = t0 + 15 * kMinute;
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  h.detector.advance(w + 90 * kMinute);
  ASSERT_EQ(h.detector.active_zombies().size(), 1u);
  const auto alerted = h.detector.active_version();

  // Same path again: nothing the active set shows has changed.
  h.detector.ingest(announce(w + 2 * kHour, peer_a(), kBeacon));
  EXPECT_EQ(h.detector.active_version(), alerted);

  auto rerouted = announce(w + 3 * kHour, peer_a(), kBeacon);
  rerouted.update.attributes.as_path = bgp::AsPath{peer_a().asn, 3356, 210312};
  h.detector.ingest(rerouted);
  EXPECT_NE(h.detector.active_version(), alerted);
  const auto active = h.detector.active_zombies();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].stuck_path, rerouted.update.attributes.as_path);
  EXPECT_EQ(active[0].raised_at, w + 90 * kMinute) << "a new path is not a new alert";
  EXPECT_EQ(h.alerts.size(), 1u);
}

TEST(RealTime, SupersededEventsIgnored) {
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  BeaconEvent event = event_at(t0);
  event.superseded = true;
  h.detector.expect(event);
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  h.detector.advance(t0 + 6 * kHour);
  EXPECT_TRUE(h.alerts.empty());
}

TEST(RealTime, MessagesBeforeAnnounceTimeIgnored) {
  // Stale messages from a previous life of the prefix must not arm the
  // watch.
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 - kHour, peer_a(), kBeacon));
  h.detector.advance(t0 + 15 * kMinute + 2 * kHour);
  EXPECT_TRUE(h.alerts.empty());
}

TEST(RealTime, WindowClosesAtItsDeadlineOrAtAnEarlierRecycle) {
  Harness h;
  std::vector<WindowPeers> closes;
  h.detector.on_window_close([&](const WindowPeers& window) { closes.push_back(window); });
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const auto w = t0 + 15 * kMinute;
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  // Before the scheduled withdraw time: the route clears, but the
  // window has not seen peer_a withdraw.
  h.detector.ingest(withdraw(t0 + 5 * kMinute, peer_a(), kBeacon));
  h.detector.ingest(withdraw(w + 1, peer_b(), kBeacon));
  h.detector.advance(w + 90 * kMinute - 1);
  EXPECT_TRUE(closes.empty());
  h.detector.advance(w + 90 * kMinute);
  ASSERT_EQ(closes.size(), 1u);
  ASSERT_EQ(closes[0].size(), 2u);
  EXPECT_TRUE(closes[0].at(peer_a()).ann_seen);
  EXPECT_FALSE(closes[0].at(peer_a()).wd_seen);
  EXPECT_FALSE(closes[0].at(peer_b()).ann_seen);
  EXPECT_TRUE(closes[0].at(peer_b()).wd_seen);

  // The next window is recycled 30 minutes after its withdrawal, long
  // before its deadline: it closes at the recycle and never alerts.
  const auto t1 = t0 + 4 * kHour;
  h.detector.expect(event_at(t1));
  h.detector.ingest(announce(t1 + 10, peer_a(), kBeacon));
  h.detector.advance(t1 + 45 * kMinute);
  h.detector.expect(event_at(t1 + 45 * kMinute));
  ASSERT_EQ(closes.size(), 2u);
  EXPECT_TRUE(closes[1].at(peer_a()).ann_seen);
  h.detector.advance(t1 + 10 * kHour);
  ASSERT_EQ(closes.size(), 3u);
  EXPECT_TRUE(closes[2].empty());
  EXPECT_TRUE(h.alerts.empty());
}

TEST(RealTime, CountersTrackTotals) {
  Harness h;
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  h.detector.expect(event_at(t0));
  h.detector.ingest(announce(t0 + 10, peer_a(), kBeacon));
  h.detector.ingest(announce(t0 + 11, peer_b(), kBeacon));
  h.detector.advance(t0 + 15 * kMinute + 90 * kMinute);
  EXPECT_EQ(h.detector.alerts_raised(), 2);
  h.detector.ingest(withdraw(t0 + 5 * kHour, peer_a(), kBeacon));
  EXPECT_EQ(h.detector.resolutions(), 1);
}

TEST(RealTimeRandomized, UpfrontScheduleMatchesStreamOrderRelease) {
  // Given the whole schedule up front, in shuffled order, the detector
  // must raise, resolve and close exactly what it does when each event
  // is released in stream order. The sums over every seed show the
  // streams reach the ties that ordering decides.
  int on_deadline = 0;
  int resurrected = 0;
  int resolutions = 0;
  int records_on_deadline = 0;
  int recycles_on_deadline = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    const random_stream::Stream stream = random_stream::generate(seed);
    RealTimeZombieDetector upfront(RealTimeConfig{random_stream::kThreshold});
    RealTimeZombieDetector reference(RealTimeConfig{random_stream::kThreshold});
    std::vector<std::string> upfront_trace;
    std::vector<std::string> reference_trace;
    random_stream::record_trace(upfront, upfront_trace);
    random_stream::record_trace(reference, reference_trace);
    random_stream::drive_upfront(upfront, stream);
    random_stream::drive_in_stream_order(reference, stream);
    ASSERT_EQ(upfront_trace, reference_trace)
        << "seed " << seed << "\n" << random_stream::describe(stream);

    for (const std::string& line : reference_trace) {
      if (line.starts_with("alert")) {
        ++(line.find(" resurrected ") == std::string::npos ? on_deadline : resurrected);
      }
      if (line.starts_with("resolve")) ++resolutions;
    }
    std::set<std::pair<netbase::Prefix, netbase::TimePoint>> deadlines;
    std::set<netbase::TimePoint> deadline_instants;
    for (const BeaconEvent& event : stream.schedule) {
      if (event.superseded) continue;
      deadlines.emplace(event.prefix, event.withdraw_time + random_stream::kThreshold);
      deadline_instants.insert(event.withdraw_time + random_stream::kThreshold);
    }
    for (const BeaconEvent& event : stream.schedule)
      if (!event.superseded && deadlines.contains({event.prefix, event.announce_time}))
        ++recycles_on_deadline;
    for (const auto& record : stream.records)
      if (deadline_instants.contains(mrt::record_timestamp(record))) ++records_on_deadline;
  }
  EXPECT_GT(on_deadline, 0);
  EXPECT_GT(resurrected, 0);
  EXPECT_GT(resolutions, 0);
  EXPECT_GT(records_on_deadline, 0);
  EXPECT_GT(recycles_on_deadline, 0);
}

}  // namespace
}  // namespace zombiescope::zombie
