// Tests for the core zombie-detection library: state reconstruction,
// the interval detector with Aggregator-clock dedup, the long-lived
// detector, the lifespan/resurrection analyzer, noisy-peer filtering,
// root-cause inference, and the looking-glass comparator.
//
// These tests construct MRT record streams directly (hand-built or
// via small simulations), mirroring how the real pipeline consumes
// RIS raw data.

#include <gtest/gtest.h>

#include "beacon/clock.hpp"
#include "beacon/schedule.hpp"
#include "obs/journal.hpp"
#include "zombie/analyzer.hpp"
#include "zombie/interval_detector.hpp"
#include "zombie/longlived.hpp"
#include "zombie/lookingglass.hpp"
#include "zombie/noisy.hpp"
#include "zombie/rootcause.hpp"
#include "zombie/state.hpp"

namespace zombiescope::zombie {
namespace {

using beacon::BeaconEvent;
using netbase::AddressFamily;
using netbase::IpAddress;
using netbase::kHour;
using netbase::kMinute;
using netbase::Prefix;
using netbase::TimePoint;
using netbase::utc;

const Prefix kV4Beacon = Prefix::parse("84.205.64.0/24");
const Prefix kV6Beacon = Prefix::parse("2001:7fb:fe00::/48");

PeerKey peer_a() { return {64500, IpAddress::parse("192.0.2.1")}; }
PeerKey peer_b() { return {64501, IpAddress::parse("192.0.2.2")}; }

mrt::Bgp4mpMessage announce(TimePoint t, const PeerKey& peer, const Prefix& prefix,
                            std::vector<bgp::Asn> path,
                            std::optional<TimePoint> aggregator_origin = std::nullopt) {
  mrt::Bgp4mpMessage m;
  m.timestamp = t;
  m.peer_asn = peer.asn;
  m.peer_address = peer.address;
  m.local_asn = 12654;
  m.local_address = peer.address.is_v4() ? IpAddress::parse("193.0.4.28")
                                         : IpAddress::parse("2001:7f8::1");
  m.update.announced.push_back(prefix);
  m.update.attributes.as_path = bgp::AsPath::sequence(std::move(path));
  m.update.attributes.next_hop = peer.address;
  if (aggregator_origin.has_value())
    m.update.attributes.aggregator = beacon::make_beacon_aggregator(12654, *aggregator_origin);
  return m;
}

mrt::Bgp4mpMessage withdraw(TimePoint t, const PeerKey& peer, const Prefix& prefix) {
  mrt::Bgp4mpMessage m;
  m.timestamp = t;
  m.peer_asn = peer.asn;
  m.peer_address = peer.address;
  m.local_asn = 12654;
  m.local_address = peer.address.is_v4() ? IpAddress::parse("193.0.4.28")
                                         : IpAddress::parse("2001:7f8::1");
  m.update.withdrawn.push_back(prefix);
  return m;
}

mrt::Bgp4mpStateChange session_drop(TimePoint t, const PeerKey& peer) {
  mrt::Bgp4mpStateChange s;
  s.timestamp = t;
  s.peer_asn = peer.asn;
  s.peer_address = peer.address;
  s.local_asn = 12654;
  s.local_address = IpAddress::parse("193.0.4.28");
  s.old_state = bgp::SessionState::kEstablished;
  s.new_state = bgp::SessionState::kIdle;
  return s;
}

// --- StateTracker -----------------------------------------------------------

TEST(StateTracker, AnnounceWithdrawToggleState) {
  StateTracker tracker;
  const auto t0 = utc(2018, 7, 19, 0, 0, 0);
  tracker.apply(announce(t0, peer_a(), kV4Beacon, {64500, 12654}));
  EXPECT_TRUE(tracker.is_present(peer_a(), kV4Beacon));
  EXPECT_FALSE(tracker.is_present(peer_b(), kV4Beacon));
  tracker.apply(withdraw(t0 + kHour, peer_a(), kV4Beacon));
  EXPECT_FALSE(tracker.is_present(peer_a(), kV4Beacon));
  const RouteStatus* status = tracker.status(peer_a(), kV4Beacon);
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->last_change, t0 + kHour);
}

TEST(StateTracker, SessionDropFlushesPeer) {
  StateTracker tracker;
  const auto t0 = utc(2018, 7, 19, 0, 0, 0);
  tracker.apply(announce(t0, peer_a(), kV4Beacon, {64500, 12654}));
  tracker.apply(announce(t0, peer_a(), kV6Beacon, {64500, 12654}));
  tracker.apply(announce(t0, peer_b(), kV4Beacon, {64501, 12654}));
  tracker.apply(session_drop(t0 + kMinute, peer_a()));
  EXPECT_FALSE(tracker.is_present(peer_a(), kV4Beacon));
  EXPECT_FALSE(tracker.is_present(peer_a(), kV6Beacon));
  EXPECT_TRUE(tracker.is_present(peer_b(), kV4Beacon));
  EXPECT_EQ(tracker.holders(kV4Beacon).size(), 1u);
}

TEST(StateTracker, MergeArchivesSortsByTime) {
  std::vector<mrt::MrtRecord> a{announce(100, peer_a(), kV4Beacon, {1}),
                                announce(300, peer_a(), kV6Beacon, {1})};
  std::vector<mrt::MrtRecord> b{announce(200, peer_b(), kV4Beacon, {2})};
  const std::vector<const std::vector<mrt::MrtRecord>*> archives{&a, &b};
  auto merged = merge_archives(archives);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(mrt::record_timestamp(merged[0]), 100);
  EXPECT_EQ(mrt::record_timestamp(merged[1]), 200);
  EXPECT_EQ(mrt::record_timestamp(merged[2]), 300);
}

// --- IntervalZombieDetector -------------------------------------------------

std::vector<BeaconEvent> two_intervals(const Prefix& prefix, TimePoint day) {
  return {
      {prefix, day, day + 2 * kHour, false},
      {prefix, day + 4 * kHour, day + 6 * kHour, false},
  };
}

TEST(IntervalDetector, CleanBeaconYieldsNoZombie) {
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      withdraw(day + 2 * kHour + 40, peer_a(), kV4Beacon),
  };
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  EXPECT_TRUE(result.outbreaks_with_duplicates.empty());
  EXPECT_TRUE(result.outbreaks_deduplicated.empty());
  EXPECT_EQ(result.visible_prefixes, 1);
}

TEST(IntervalDetector, StuckRouteIsAZombie) {
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      announce(day + 40, peer_b(), kV4Beacon, {64501, 12654}, day),
      withdraw(day + 2 * kHour + 40, peer_b(), kV4Beacon),
      // peer_a never withdraws: stuck at the 90-minute check.
  };
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  ASSERT_EQ(result.outbreaks_with_duplicates.size(), 1u);
  ASSERT_EQ(result.outbreaks_deduplicated.size(), 1u);
  const auto& outbreak = result.outbreaks_deduplicated[0];
  ASSERT_EQ(outbreak.routes.size(), 1u);
  EXPECT_EQ(outbreak.routes[0].peer, peer_a());
  EXPECT_FALSE(outbreak.routes[0].duplicate);
  EXPECT_EQ(outbreak.interval_start, day);
}

TEST(IntervalDetector, WithdrawalJustBeforeCheckIsClean) {
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      withdraw(day + 2 * kHour + 89 * kMinute, peer_a(), kV4Beacon),
  };
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  EXPECT_TRUE(result.outbreaks_with_duplicates.empty());
}

TEST(IntervalDetector, WithdrawalAfterThresholdStillAZombie) {
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      withdraw(day + 2 * kHour + 91 * kMinute, peer_a(), kV4Beacon),
  };
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  EXPECT_EQ(result.outbreaks_with_duplicates.size(), 1u);
}

TEST(IntervalDetector, SessionFlushBeforeCheckIsClean) {
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records;
  records.push_back(announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day));
  records.push_back(session_drop(day + 3 * kHour, peer_a()));
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  EXPECT_TRUE(result.outbreaks_with_duplicates.empty());
}

TEST(IntervalDetector, AggregatorClockEliminatesDoubleCounting) {
  // The §3.1 scenario: a stuck route is refreshed in a LATER interval
  // by a churn re-announcement that still carries the ORIGINAL
  // Aggregator clock. The baseline counts it again; the revised
  // methodology flags it as a duplicate.
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      // Interval 1: stuck at peer_a (never withdrawn).
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      // Interval 2: peer_a re-announces (e.g. upstream churn) with the
      // *old* clock; still never withdraws.
      announce(day + 4 * kHour + 20 * kMinute, peer_a(), kV4Beacon, {64500, 777, 12654},
               day),
  };
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  ASSERT_EQ(result.outbreaks_with_duplicates.size(), 2u);   // double-counted
  ASSERT_EQ(result.outbreaks_deduplicated.size(), 1u);      // revised: one outbreak
  EXPECT_EQ(result.outbreaks_deduplicated[0].interval_start, day);
  // The duplicate route is flagged, with its decoded origin time.
  bool found_duplicate = false;
  for (const auto& route : result.routes) {
    if (route.interval_start != day + 4 * kHour) continue;
    EXPECT_TRUE(route.duplicate);
    ASSERT_TRUE(route.aggregator_time.has_value());
    EXPECT_EQ(*route.aggregator_time, day);
    found_duplicate = true;
  }
  EXPECT_TRUE(found_duplicate);
}

TEST(IntervalDetector, FreshAnnouncementInNewIntervalIsNotADuplicate) {
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      withdraw(day + 2 * kHour + 5, peer_a(), kV4Beacon),
      // Interval 2: fresh announcement with the interval's own clock,
      // then stuck.
      announce(day + 4 * kHour + 30, peer_a(), kV4Beacon, {64500, 12654}, day + 4 * kHour),
  };
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  ASSERT_EQ(result.outbreaks_deduplicated.size(), 1u);
  EXPECT_EQ(result.outbreaks_deduplicated[0].interval_start, day + 4 * kHour);
}

TEST(IntervalDetector, PerIntervalIndependenceIgnoresStaleState) {
  // A zombie from interval 1 that generates NO message in interval 2
  // must not count in interval 2 (the paper processes each interval
  // with no prior knowledge).
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      // silence afterwards
  };
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  ASSERT_EQ(result.outbreaks_with_duplicates.size(), 1u);
  EXPECT_EQ(result.outbreaks_with_duplicates[0].interval_start, day);
}

TEST(IntervalDetector, CheckPastTheNextAnnouncementStopsAtIt) {
  // At 150 minutes the check (+4 h 30 min) falls past the next
  // announcement (+4 h). The first interval ends there: peer a's
  // withdrawal at +4 h 10 min and peer b's session drop at +4 h 5 min
  // belong to the second interval, so both routes are stuck in the
  // first. The second interval holds only a withdrawal and no
  // announcement: no zombie there, and not visible.
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records;
  records.push_back(announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day));
  records.push_back(announce(day + 40, peer_b(), kV4Beacon, {64501, 12654}, day));
  records.push_back(session_drop(day + 4 * kHour + 5 * kMinute, peer_b()));
  records.push_back(withdraw(day + 4 * kHour + 10 * kMinute, peer_a(), kV4Beacon));
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 150 * kMinute);
  ASSERT_EQ(result.outbreaks_with_duplicates.size(), 1u);
  EXPECT_EQ(result.outbreaks_with_duplicates[0].interval_start, day);
  EXPECT_EQ(result.outbreaks_with_duplicates[0].route_count(), 2);
  EXPECT_EQ(result.visible_prefixes, 1);
}

TEST(IntervalDetector, ExcludedPeerIsIgnored) {
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
  };
  LongLivedConfig config;
  config.excluded_peers.insert(peer_a());
  IntervalZombieDetector detector(config);
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  EXPECT_TRUE(result.outbreaks_with_duplicates.empty());
  EXPECT_EQ(result.visible_prefixes, 0);
}

TEST(IntervalDetector, OutbreakGroupsMultiplePeers) {
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      announce(day + 40, peer_b(), kV4Beacon, {64501, 12654}, day),
  };
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  ASSERT_EQ(result.outbreaks_with_duplicates.size(), 1u);
  EXPECT_EQ(result.outbreaks_with_duplicates[0].route_count(), 2);
  EXPECT_EQ(result.outbreaks_with_duplicates[0].peer_as_count(), 2);
}

TEST(IntervalDetector, PathObservationsFeedFig6) {
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      announce(day + 40, peer_b(), kV4Beacon, {64501, 12654}, day),
      withdraw(day + 2 * kHour + 10, peer_b(), kV4Beacon),
      // peer_a hunts to a longer stale path after the withdrawal.
      announce(day + 2 * kHour + 20, peer_a(), kV4Beacon, {64500, 777, 888, 12654}, day),
  };
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  auto pops = path_length_populations(result, AddressFamily::kIpv4, false);
  ASSERT_EQ(pops.normal_at_normal_peers.size(), 1u);  // peer_b
  ASSERT_EQ(pops.normal_at_zombie_peers.size(), 1u);  // peer_a
  ASSERT_EQ(pops.zombie_paths.size(), 1u);
  EXPECT_EQ(pops.normal_at_zombie_peers[0], 2);
  EXPECT_EQ(pops.zombie_paths[0], 4);  // longer (path hunting)
  EXPECT_EQ(pops.changed_path_fraction, 1.0);
}

// --- LongLivedZombieDetector -------------------------------------------------

std::vector<BeaconEvent> one_long_event(const Prefix& prefix, TimePoint t) {
  return {{prefix, t, t + 15 * kMinute, false}};
}

TEST(LongLived, DetectsStuckRouteAtThreshold) {
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const Prefix beacon = Prefix::parse("2a0d:3dc1:1200::/48");
  const PeerKey peer{207301, IpAddress::parse("2a0c:b641:780:7::feca")};
  std::vector<mrt::MrtRecord> records{
      announce(t0 + 10, peer, beacon, {207301, 211509, 25091, 8298, 210312}),
  };
  LongLivedZombieDetector detector{LongLivedConfig{}};
  auto result = detector.detect(records, one_long_event(beacon, t0), 90 * kMinute);
  ASSERT_EQ(result.outbreaks.size(), 1u);
  EXPECT_EQ(result.total_announcements, 1);
  EXPECT_DOUBLE_EQ(result.outbreak_fraction(), 1.0);
}

TEST(LongLived, WithdrawnInTimeIsClean) {
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const Prefix beacon = Prefix::parse("2a0d:3dc1:1200::/48");
  const PeerKey peer{207301, IpAddress::parse("2a0c:b641:780:7::feca")};
  std::vector<mrt::MrtRecord> records{
      announce(t0 + 10, peer, beacon, {207301, 210312}),
      withdraw(t0 + 20 * kMinute, peer, beacon),
  };
  LongLivedZombieDetector detector{LongLivedConfig{}};
  auto result = detector.detect(records, one_long_event(beacon, t0), 90 * kMinute);
  EXPECT_TRUE(result.outbreaks.empty());
}

TEST(LongLived, ThresholdSweepIsMonotoneForQuietStreams) {
  // A route withdrawn at +120min counts at thresholds < 120 and not
  // after — sweeping thresholds moves counts monotonically down when
  // no re-announcements occur.
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const Prefix beacon = Prefix::parse("2a0d:3dc1:1200::/48");
  const PeerKey peer{207301, IpAddress::parse("2a0c:b641:780:7::feca")};
  std::vector<mrt::MrtRecord> records{
      announce(t0 + 10, peer, beacon, {207301, 210312}),
      withdraw(t0 + 15 * kMinute + 120 * kMinute, peer, beacon),
  };
  LongLivedZombieDetector detector{LongLivedConfig{}};
  std::vector<netbase::Duration> thresholds{90 * kMinute, 110 * kMinute, 130 * kMinute};
  auto sweep = detector.sweep(records, one_long_event(beacon, t0), thresholds);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_EQ(sweep[0].outbreaks, 1);
  EXPECT_EQ(sweep[1].outbreaks, 1);
  EXPECT_EQ(sweep[2].outbreaks, 0);
}

TEST(LongLived, LateReannouncementCreatesUptick) {
  // Fig. 2's §5.1 observation: withdrawn by the peer at +150 min, a
  // new announcement arrives at +170 min — thresholds beyond 170
  // count it again (the increasing tail).
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const Prefix beacon = Prefix::parse("2a0d:3dc1:1200::/48");
  const PeerKey peer{207301, IpAddress::parse("2a0c:b641:780:7::feca")};
  const auto w = t0 + 15 * kMinute;
  std::vector<mrt::MrtRecord> records{
      announce(t0 + 10, peer, beacon, {207301, 210312}),
      withdraw(w + 150 * kMinute, peer, beacon),
      announce(w + 170 * kMinute, peer, beacon, {207301, 4637, 1299, 25091, 8298, 210312}),
  };
  LongLivedZombieDetector detector{LongLivedConfig{}};
  std::vector<netbase::Duration> thresholds{140 * kMinute, 160 * kMinute, 180 * kMinute};
  auto sweep = detector.sweep(records, one_long_event(beacon, t0), thresholds);
  EXPECT_EQ(sweep[0].outbreaks, 1);  // still stuck at 140
  EXPECT_EQ(sweep[1].outbreaks, 0);  // withdrawn by 160
  EXPECT_EQ(sweep[2].outbreaks, 1);  // resurrected by 180
}

TEST(LongLived, SupersededEventsAreSkipped) {
  const auto t0 = utc(2024, 6, 15, 0, 30, 0);
  const Prefix beacon = Prefix::parse("2a0d:3dc1:30::/48");
  std::vector<BeaconEvent> events{
      {beacon, t0, t0 + 15 * kMinute, true},                              // superseded
      {beacon, t0 + 150 * kMinute, t0 + 165 * kMinute, false},            // studied
  };
  const PeerKey peer{64500, IpAddress::parse("192.0.2.1")};
  std::vector<mrt::MrtRecord> records{
      announce(t0 + 5, peer, beacon, {64500, 210312}),
      withdraw(t0 + 16 * kMinute, peer, beacon),
      announce(t0 + 150 * kMinute + 5, peer, beacon, {64500, 210312}),
  };
  LongLivedZombieDetector detector{LongLivedConfig{}};
  auto result = detector.detect(records, events, 90 * kMinute);
  EXPECT_EQ(result.total_announcements, 1);
  ASSERT_EQ(result.outbreaks.size(), 1u);
  EXPECT_EQ(result.outbreaks[0].interval_start, t0 + 150 * kMinute);
}

// Two beacons seen by two peers, with answers that move across the
// 90-180 min sweep: peer a withdraws both (p2 at +100, p1 at +120
// min), peer b's session drops at +130 min, and peer a re-announces p2
// at +160 min.
struct SweepStream {
  std::vector<BeaconEvent> events;
  std::vector<mrt::MrtRecord> records;
};

SweepStream mixed_sweep_stream() {
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const auto w = t0 + 15 * kMinute;
  const Prefix p1 = Prefix::parse("2a0d:3dc1:1200::/48");
  const Prefix p2 = Prefix::parse("2a0d:3dc1:1201::/48");
  SweepStream s;
  s.events = {{p1, t0, w, false}, {p2, t0, w, false}};
  s.records = {
      announce(t0 + 10, peer_a(), p1, {64500, 210312}),
      announce(t0 + 12, peer_b(), p1, {64501, 210312}),
      announce(t0 + 15, peer_a(), p2, {64500, 210312}),
      announce(t0 + 20, peer_b(), p2, {64501, 210312}),
      withdraw(w + 100 * kMinute, peer_a(), p2),
      withdraw(w + 120 * kMinute, peer_a(), p1),
      session_drop(w + 130 * kMinute, peer_b()),
      announce(w + 160 * kMinute, peer_a(), p2, {64500, 3356, 210312}),
  };
  return s;
}

TEST(LongLived, SweepKeepsCallerThresholdOrder) {
  const SweepStream s = mixed_sweep_stream();
  LongLivedZombieDetector detector{LongLivedConfig{}};
  const std::vector<netbase::Duration> thresholds{180 * kMinute, 90 * kMinute, 140 * kMinute,
                                                  90 * kMinute};
  const auto sweep = detector.sweep(s.records, s.events, thresholds);
  ASSERT_EQ(sweep.size(), thresholds.size());
  const std::vector<int> outbreaks{1, 2, 0, 2};
  const std::vector<int> routes{1, 4, 0, 4};
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    SCOPED_TRACE(i);
    const auto result = detector.detect(s.records, s.events, thresholds[i]);
    EXPECT_EQ(sweep[i].threshold, thresholds[i]);
    EXPECT_EQ(sweep[i].outbreaks, outbreaks[i]);
    EXPECT_EQ(sweep[i].routes, routes[i]);
    EXPECT_EQ(sweep[i].outbreaks, static_cast<int>(result.outbreaks.size()));
    EXPECT_EQ(sweep[i].routes, result.route_count());
    EXPECT_DOUBLE_EQ(sweep[i].announcement_fraction, result.outbreak_fraction());
  }
  EXPECT_TRUE(detector.sweep(s.records, s.events, {}).empty());
}

TEST(LongLived, SessionDropInSweepTailCountsOnlyInsideTheWindow) {
  // Like LateReannouncementCreatesUptick, but the route is flushed by
  // the peer's session going down at +150 min, not withdrawn.
  const auto t0 = utc(2024, 6, 4, 12, 0, 0);
  const Prefix beacon = Prefix::parse("2a0d:3dc1:1200::/48");
  const PeerKey peer = peer_a();
  const auto w = t0 + 15 * kMinute;
  std::vector<mrt::MrtRecord> records{
      announce(t0 + 10, peer, beacon, {64500, 210312}),
      session_drop(w + 150 * kMinute, peer),
      announce(w + 170 * kMinute, peer, beacon, {64500, 4637, 1299, 25091, 8298, 210312}),
  };
  LongLivedZombieDetector detector{LongLivedConfig{}};
  const std::vector<netbase::Duration> thresholds{140 * kMinute, 160 * kMinute, 180 * kMinute};
  const auto sweep = detector.sweep(records, one_long_event(beacon, t0), thresholds);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_EQ(sweep[0].outbreaks, 1);  // stuck at 140
  EXPECT_EQ(sweep[1].outbreaks, 0);  // flushed by 160
  EXPECT_EQ(sweep[2].outbreaks, 1);  // re-announced by 180
  const auto at180 = detector.detect(records, one_long_event(beacon, t0), 180 * kMinute);
  ASSERT_EQ(at180.outbreaks.size(), 1u);
  EXPECT_EQ(at180.outbreaks[0].routes[0].path.to_string(), "64500 4637 1299 25091 8298 210312");
}

TEST(LongLived, SweepJournalsLikeOneDetectPerThreshold) {
  const SweepStream s = mixed_sweep_stream();
  LongLivedZombieDetector detector{LongLivedConfig{}};
  const std::vector<netbase::Duration> thresholds{180 * kMinute, 90 * kMinute, 140 * kMinute,
                                                  90 * kMinute};
  obs::Journal& journal = obs::Journal::global();
  const std::uint32_t mask = journal.enabled_categories();
  journal.set_enabled_categories(obs::kCatDetector);
  journal.reset();
  detector.sweep(s.records, s.events, thresholds);
  const auto swept = journal.tail(obs::Journal::kRecentCapacity);
  journal.reset();
  for (const auto threshold : thresholds) detector.detect(s.records, s.events, threshold);
  const auto detected = journal.tail(obs::Journal::kRecentCapacity);
  journal.reset();
  journal.set_enabled_categories(mask);
  EXPECT_EQ(swept.size(), 18u);  // 9 routes, two events each
  EXPECT_EQ(swept, detected);
}

// --- LifespanAnalyzer --------------------------------------------------------

mrt::PeerIndexTable index_table(TimePoint t, std::vector<PeerKey> peers) {
  mrt::PeerIndexTable table;
  table.timestamp = t;
  table.view_name = "rrc25";
  for (const auto& p : peers)
    table.peers.push_back({static_cast<std::uint32_t>(table.peers.size()), p.address, p.asn});
  return table;
}

mrt::RibEntryRecord rib_entry(TimePoint t, const Prefix& prefix,
                              std::vector<std::uint16_t> peer_indices) {
  mrt::RibEntryRecord rib;
  rib.timestamp = t;
  rib.prefix = prefix;
  for (std::uint16_t index : peer_indices) {
    mrt::RibEntryRecord::Entry e;
    e.peer_index = index;
    e.originated_time = t;
    e.attributes.as_path = bgp::AsPath{61573, 28598, 10429, 12956, 3356, 34549, 8298, 210312};
    rib.entries.push_back(e);
  }
  return rib;
}

TEST(Lifespan, DurationSpansDumpsAndMergesGaps) {
  const Prefix beacon = Prefix::parse("2a0d:3dc1:1851::/48");
  const auto withdraw_time = utc(2024, 6, 21, 18, 45, 0) + 15 * kMinute;
  std::vector<BeaconEvent> events{
      {beacon, utc(2024, 6, 21, 18, 45, 0), withdraw_time, false}};

  const auto dump_interval = 8 * kHour;
  std::vector<mrt::MrtRecord> dumps;
  const auto peers = std::vector<PeerKey>{peer_a()};
  // Visible 06-29 .. 10-04, gap, visible again 11-29 .. 2025-03-11
  // (the paper's Fig. 4 timeline).
  for (TimePoint t = utc(2024, 6, 29); t <= utc(2024, 10, 4); t += dump_interval) {
    dumps.push_back(index_table(t, peers));
    dumps.push_back(rib_entry(t, beacon, {0}));
  }
  for (TimePoint t = utc(2024, 11, 29); t <= utc(2025, 3, 11); t += dump_interval) {
    dumps.push_back(index_table(t, peers));
    dumps.push_back(rib_entry(t, beacon, {0}));
  }

  LifespanAnalyzer analyzer{LongLivedConfig{}};
  auto lifespans = analyzer.analyze(dumps, events, dump_interval);
  ASSERT_EQ(lifespans.size(), 1u);
  const auto& l = lifespans[0];
  EXPECT_EQ(l.prefix, beacon);
  // Total lifespan ~8.5 months (the paper: "in total ~8.5 months").
  EXPECT_GT(l.duration(), 255 * netbase::kDay);
  EXPECT_LT(l.duration(), 270 * netbase::kDay);
  // Two presence intervals (visible, gap, visible).
  ASSERT_EQ(l.intervals.size(), 2u);
  // The prefix resurrects twice (paper Fig. 4): first appearing a week
  // after the withdrawal, then again on 2024-11-29 after the gap.
  ASSERT_EQ(l.resurrections.size(), 2u);
  EXPECT_EQ(l.resurrections[0].reappeared_at, utc(2024, 6, 29));
  EXPECT_EQ(l.resurrections[1].reappeared_at, utc(2024, 11, 29));
}

TEST(Lifespan, SightingsBeforeWithdrawalIgnored) {
  const Prefix beacon = Prefix::parse("2a0d:3dc1:1145::/48");
  const auto announce_time = utc(2024, 6, 4, 11, 45, 0);
  std::vector<BeaconEvent> events{
      {beacon, announce_time, announce_time + 15 * kMinute, false}};
  std::vector<mrt::MrtRecord> dumps;
  dumps.push_back(index_table(announce_time + 5 * kMinute, {peer_a()}));
  dumps.push_back(rib_entry(announce_time + 5 * kMinute, beacon, {0}));  // legit route
  LifespanAnalyzer analyzer{LongLivedConfig{}};
  auto lifespans = analyzer.analyze(dumps, events, 8 * kHour);
  EXPECT_TRUE(lifespans.empty());
}

TEST(Lifespan, ExcludedPeerDoesNotContribute) {
  const Prefix beacon = Prefix::parse("2a0d:3dc1:1145::/48");
  const auto announce_time = utc(2024, 6, 4, 11, 45, 0);
  std::vector<BeaconEvent> events{
      {beacon, announce_time, announce_time + 15 * kMinute, false}};
  std::vector<mrt::MrtRecord> dumps;
  const auto t = announce_time + kHour;
  dumps.push_back(index_table(t, {peer_a()}));
  dumps.push_back(rib_entry(t, beacon, {0}));
  LongLivedConfig config;
  config.excluded_peers.insert(peer_a());
  LifespanAnalyzer analyzer{config};
  EXPECT_TRUE(analyzer.analyze(dumps, events, 8 * kHour).empty());
}

// --- NoisyPeerFilter ---------------------------------------------------------

TEST(NoisyPeers, OutlierIsFlagged) {
  // 20 peers: one stuck 40% of the time, the rest ~1.5%.
  std::vector<PeerKey> peers;
  std::vector<ZombieRoute> routes;
  const int announcements = 200;
  for (int i = 0; i < 20; ++i) {
    PeerKey peer{static_cast<bgp::Asn>(64500 + i),
                 IpAddress::parse("192.0.2." + std::to_string(i + 1))};
    peers.push_back(peer);
    const int stuck = i == 0 ? 80 : 3;  // 40% vs 1.5%
    for (int k = 0; k < stuck; ++k) {
      ZombieRoute route;
      route.peer = peer;
      route.prefix = kV4Beacon;
      routes.push_back(route);
    }
  }
  NoisyPeerFilter filter;
  auto stats = filter.stats(routes, peers, announcements);
  ASSERT_EQ(stats.size(), 20u);
  auto noisy = filter.noisy_peers(stats);
  ASSERT_EQ(noisy.size(), 1u);
  EXPECT_EQ(noisy[0].peer.asn, 64500u);
  EXPECT_NEAR(noisy[0].probability(), 0.4, 1e-9);
  EXPECT_NEAR(NoisyPeerFilter::median_probability(stats), 0.015, 1e-9);
}

TEST(NoisyPeers, UniformPopulationHasNoOutliers) {
  std::vector<PeerKey> peers;
  std::vector<ZombieRoute> routes;
  for (int i = 0; i < 10; ++i) {
    PeerKey peer{static_cast<bgp::Asn>(64500 + i),
                 IpAddress::parse("192.0.2." + std::to_string(i + 1))};
    peers.push_back(peer);
    ZombieRoute route;
    route.peer = peer;
    routes.push_back(route);
  }
  NoisyPeerFilter filter;
  auto stats = filter.stats(routes, peers, 100);
  EXPECT_TRUE(filter.noisy_peers(stats).empty());
}

TEST(NoisyPeers, FloorPreventsFlaggingInSparseData) {
  // One zombie total: that peer has probability 1/100 which is above
  // 10x median (0) but below the 5% floor — not noisy.
  std::vector<PeerKey> peers{peer_a(), peer_b()};
  std::vector<ZombieRoute> routes(1);
  routes[0].peer = peer_a();
  NoisyPeerFilter filter;
  auto stats = filter.stats(routes, peers, 100);
  EXPECT_TRUE(filter.noisy_peers(stats).empty());
}

// --- Root cause --------------------------------------------------------------

TEST(RootCause, PalmTreeChain) {
  // The paper's impactful zombie: all routes share "33891 25091 8298
  // 210312"; many peers branch above 33891.
  std::vector<bgp::AsPath> paths{
      {3333, 33891, 25091, 8298, 210312},
      {1111, 2222, 33891, 25091, 8298, 210312},
      {4444, 33891, 25091, 8298, 210312},
  };
  auto result = infer_root_cause(paths);
  ASSERT_TRUE(result.suspect.has_value());
  EXPECT_EQ(*result.suspect, 33891u);
  EXPECT_EQ(result.common_subpath(), "33891 25091 8298 210312");
  EXPECT_FALSE(result.ambiguous);
  EXPECT_FALSE(result.single_route);
}

TEST(RootCause, SingleRouteIsWholePath) {
  std::vector<bgp::AsPath> paths{{9304, 6939, 43100, 25091, 8298, 210312}};
  auto result = infer_root_cause(paths);
  EXPECT_TRUE(result.single_route);
  ASSERT_TRUE(result.suspect.has_value());
  EXPECT_EQ(*result.suspect, 9304u);
  EXPECT_EQ(result.common_subpath(), "9304 6939 43100 25091 8298 210312");
}

TEST(RootCause, BranchAtOriginIsAmbiguous) {
  std::vector<bgp::AsPath> paths{{111, 210312}, {222, 210312}};
  auto result = infer_root_cause(paths);
  EXPECT_TRUE(result.ambiguous);
  ASSERT_TRUE(result.suspect.has_value());
  EXPECT_EQ(*result.suspect, 210312u);  // only the origin is common
}

TEST(RootCause, PrependingDoesNotBreakChain) {
  std::vector<bgp::AsPath> paths{
      {111, 33891, 33891, 33891, 8298, 210312},  // prepend padding
      {222, 33891, 8298, 210312},
  };
  auto result = infer_root_cause(paths);
  ASSERT_TRUE(result.suspect.has_value());
  EXPECT_EQ(*result.suspect, 33891u);
}

TEST(RootCause, EmptyOutbreak) {
  auto result = infer_root_cause(std::vector<bgp::AsPath>{});
  EXPECT_FALSE(result.suspect.has_value());
  EXPECT_TRUE(result.chain.empty());
}

TEST(RootCause, OutbreakOverloadWithNoRoutes) {
  // The ZombieOutbreak overload, not just the raw-paths one: an
  // outbreak object with an empty route list must come back inert.
  ZombieOutbreak outbreak;
  outbreak.prefix = netbase::Prefix::parse("203.0.113.0/24");
  auto result = infer_root_cause(outbreak);
  EXPECT_FALSE(result.suspect.has_value());
  EXPECT_TRUE(result.chain.empty());
  EXPECT_FALSE(result.ambiguous);
  EXPECT_FALSE(result.single_route);
  EXPECT_EQ(result.common_subpath(), "");
}

TEST(RootCause, OriginDisagreementHasNoChainAndNoSuspect) {
  // Paths that do not even share an origin (e.g. a MOAS mixup): the
  // chain is empty, the result is ambiguous, and — unlike the
  // branch-at-origin case — there is no suspect at all.
  std::vector<bgp::AsPath> paths{{111, 210312}, {222, 99999}};
  auto result = infer_root_cause(paths);
  EXPECT_TRUE(result.ambiguous);
  EXPECT_FALSE(result.suspect.has_value());
  EXPECT_TRUE(result.chain.empty());
  EXPECT_EQ(result.common_subpath(), "");
}

TEST(RootCause, AllEmptyPathsBehaveLikeEmptyOutbreak) {
  // Routes whose AS paths flattened to nothing (a pure AS_SET path
  // stripped by dedup, or a malformed archive) must not fabricate a
  // suspect or claim single_route.
  std::vector<bgp::AsPath> paths{bgp::AsPath{}, bgp::AsPath{}};
  auto result = infer_root_cause(paths);
  EXPECT_FALSE(result.suspect.has_value());
  EXPECT_TRUE(result.chain.empty());
  EXPECT_FALSE(result.ambiguous);
  EXPECT_FALSE(result.single_route);
}

TEST(RootCause, OutbreakOverloadSingleRoute) {
  ZombieOutbreak outbreak;
  outbreak.prefix = netbase::Prefix::parse("203.0.113.0/24");
  ZombieRoute route;
  route.prefix = outbreak.prefix;
  route.path = bgp::AsPath{9304, 6939, 210312};
  outbreak.routes.push_back(route);
  auto result = infer_root_cause(outbreak);
  EXPECT_TRUE(result.single_route);
  ASSERT_TRUE(result.suspect.has_value());
  EXPECT_EQ(*result.suspect, 9304u);
  EXPECT_FALSE(result.ambiguous);
}

// --- Looking glass ------------------------------------------------------------

TEST(LookingGlass, LagCreatesFalsePositive) {
  // The withdrawal lands 5 minutes before the 90-minute poll; the
  // looking glass (lag 8 min) still serves the stale state, so it
  // reports a zombie the raw methodology does not.
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      withdraw(day + 2 * kHour + 86 * kMinute, peer_a(), kV4Beacon),
  };
  auto events = two_intervals(kV4Beacon, day);

  LookingGlassDetector lg{LookingGlassConfig{}};
  auto lg_result = lg.detect(records, events);
  ASSERT_EQ(lg_result.outbreaks.size(), 1u);

  IntervalZombieDetector raw({});
  auto raw_result = raw.detect(records, events, 90 * kMinute);
  EXPECT_TRUE(raw_result.outbreaks_with_duplicates.empty());
}

TEST(LookingGlass, LagCreatesFalseNegative) {
  // A re-announcement lands 5 minutes before the poll: the raw method
  // sees a stuck route; the lagged looking glass still believes the
  // earlier withdrawal.
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      withdraw(day + 2 * kHour + 30 * kMinute, peer_a(), kV4Beacon),
      announce(day + 2 * kHour + 86 * kMinute, peer_a(), kV4Beacon, {64500, 12654}, day),
  };
  auto events = two_intervals(kV4Beacon, day);

  LookingGlassDetector lg{LookingGlassConfig{}};
  EXPECT_TRUE(lg.detect(records, events).outbreaks.empty());

  IntervalZombieDetector raw({});
  EXPECT_EQ(raw.detect(records, events, 90 * kMinute).outbreaks_with_duplicates.size(), 1u);
}

TEST(LookingGlass, SessionDropInsideTheLagIsStillServed) {
  // The peer's session goes down before the 90-minute poll and takes
  // the route with it. A drop 5 minutes before the poll is inside the
  // looking glass's lag (8 min), so it still serves the route: a
  // zombie the raw methodology does not report. A drop 20 minutes
  // before is past the lag, so neither reports one.
  const auto day = utc(2018, 7, 19);
  const auto events = two_intervals(kV4Beacon, day);
  const TimePoint poll = day + 2 * kHour + 90 * kMinute;
  LookingGlassConfig config;
  config.stale_snapshot_probability = 0.0;  // isolate the lag
  const LookingGlassDetector lg(config);
  const IntervalZombieDetector raw({});
  for (const auto& [before, lg_outbreaks] :
       {std::pair{5 * kMinute, 1u}, std::pair{20 * kMinute, 0u}}) {
    SCOPED_TRACE(before / kMinute);
    const std::vector<mrt::MrtRecord> records{
        announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
        session_drop(poll - before, peer_a()),
    };
    const auto lg_result = lg.detect(records, events);
    EXPECT_EQ(lg_result.outbreaks.size(), lg_outbreaks);
    EXPECT_EQ(lg_result.routes.size(), lg_outbreaks);
    EXPECT_TRUE(raw.detect(records, events, 90 * kMinute).outbreaks_with_duplicates.empty());
  }
}

TEST(LookingGlass, MissingCountsBothDirections) {
  const auto day = utc(2018, 7, 19);
  std::vector<mrt::MrtRecord> records{
      // peer_a: LG-only zombie (withdrawn within the lag window).
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      withdraw(day + 2 * kHour + 86 * kMinute, peer_a(), kV4Beacon),
      // peer_b: raw-only zombie (re-announced within the lag window).
      announce(day + 40, peer_b(), kV4Beacon, {64501, 12654}, day),
      withdraw(day + 2 * kHour + 30 * kMinute, peer_b(), kV4Beacon),
      announce(day + 2 * kHour + 87 * kMinute, peer_b(), kV4Beacon, {64501, 12654}, day),
  };
  auto events = two_intervals(kV4Beacon, day);

  LookingGlassDetector lg{LookingGlassConfig{}};
  auto lg_result = lg.detect(records, events);
  IntervalZombieDetector raw({});
  auto raw_result = raw.detect(records, events, 90 * kMinute);

  const auto raw_missing_from_lg =
      count_missing(raw_result.routes, raw_result.outbreaks_with_duplicates,
                    lg_result.routes, lg_result.outbreaks);
  const auto lg_missing_from_raw =
      count_missing(lg_result.routes, lg_result.outbreaks,
                    raw_result.routes, raw_result.outbreaks_with_duplicates);
  EXPECT_EQ(raw_missing_from_lg.routes_v4, 1);  // peer_b zombie
  EXPECT_EQ(lg_missing_from_raw.routes_v4, 1);  // peer_a zombie
}

// --- Analyzer -----------------------------------------------------------------

TEST(Analyzer, EmergenceRates) {
  const auto day = utc(2018, 7, 19);
  // Two intervals; peer_a gets stuck in the first only; both peers see
  // both announcements.
  std::vector<mrt::MrtRecord> records{
      announce(day + 30, peer_a(), kV4Beacon, {64500, 12654}, day),
      announce(day + 40, peer_b(), kV4Beacon, {64501, 12654}, day),
      withdraw(day + 2 * kHour + 10, peer_b(), kV4Beacon),
      // interval 2, clean for both:
      announce(day + 4 * kHour + 30, peer_a(), kV4Beacon, {64500, 12654}, day + 4 * kHour),
      announce(day + 4 * kHour + 40, peer_b(), kV4Beacon, {64501, 12654}, day + 4 * kHour),
      withdraw(day + 6 * kHour + 10, peer_a(), kV4Beacon),
      withdraw(day + 6 * kHour + 12, peer_b(), kV4Beacon),
  };
  IntervalZombieDetector detector({});
  auto result = detector.detect(records, two_intervals(kV4Beacon, day), 90 * kMinute);
  auto rates = emergence_rates(result, AddressFamily::kIpv4, true);
  ASSERT_EQ(rates.size(), 2u);
  for (const auto& rate : rates) {
    EXPECT_EQ(rate.announcements, 2);
    if (rate.peer_asn == peer_a().asn)
      EXPECT_DOUBLE_EQ(rate.rate(), 0.5);
    else
      EXPECT_DOUBLE_EQ(rate.rate(), 0.0);
  }
}

TEST(Analyzer, ConcurrentOutbreaks) {
  std::vector<ZombieOutbreak> outbreaks;
  const auto day = utc(2018, 7, 19);
  auto make = [&](const char* prefix, TimePoint t) {
    ZombieOutbreak o;
    o.prefix = Prefix::parse(prefix);
    o.interval_start = t;
    outbreaks.push_back(o);
  };
  make("84.205.64.0/24", day);
  make("84.205.65.0/24", day);
  make("84.205.66.0/24", day + 4 * kHour);
  make("2001:7fb:fe00::/48", day);  // other family, ignored for v4
  auto concurrency = concurrent_outbreaks(outbreaks, AddressFamily::kIpv4);
  ASSERT_EQ(concurrency.size(), 3u);
  EXPECT_EQ(concurrency[0], 2);
  EXPECT_EQ(concurrency[1], 2);
  EXPECT_EQ(concurrency[2], 1);
}

}  // namespace
}  // namespace zombiescope::zombie
