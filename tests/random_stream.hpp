// tests/random_stream.hpp — seeded small beacon streams for the
// randomized checks of the real-time detector and the live service.
//
// A stream is a beacon schedule plus a time-sorted record list over
// 3–6 prefixes (v4 and v6) and 3–5 peers, two of them sessions of one
// AS: multi-prefix UPDATEs, withdrawals and Established→Idle state
// changes. Each prefix recycles before, exactly at, or after its
// previous cycle's deadline, and some events are superseded. Every
// instant sits on a one-minute grid and half the record stamps are
// drawn from the schedule's own announce, withdraw and deadline
// instants, so records land exactly on the ties the detector's
// ordering rules decide. A stream is small enough that a thousand
// seeds run in well under a second.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "beacon/schedule.hpp"
#include "mrt/record.hpp"
#include "netbase/rng.hpp"
#include "zombie/realtime.hpp"

namespace zombiescope::random_stream {

inline constexpr netbase::Duration kGrid = netbase::kMinute;
inline constexpr netbase::Duration kThreshold = 5 * kGrid;

struct Stream {
  std::vector<beacon::BeaconEvent> schedule;  // registration order
  std::vector<mrt::MrtRecord> records;        // nondecreasing stamps
  /// One second past the latest deadline of any event, superseded or
  /// not: where LiveService::finalize() advances by default.
  netbase::TimePoint end = 0;
};

inline Stream generate(std::uint64_t seed) {
  netbase::Rng rng(seed);
  const netbase::TimePoint t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  Stream out;

  std::vector<netbase::Prefix> prefixes;
  const std::int64_t family = rng.uniform_int(0, 1);
  for (std::int64_t i = 0, n = rng.uniform_int(3, 6); i < n; ++i) {
    prefixes.push_back(
        (i + family) % 2 == 0
            ? netbase::Prefix::parse("10." + std::to_string(i) + ".0.0/24")
            : netbase::Prefix::parse("2a0d:3dc1:" + std::to_string(1000 + i) + "::/48"));
  }

  std::vector<netbase::TimePoint> instants;
  for (const auto& prefix : prefixes) {
    const netbase::Duration hold = rng.uniform_int(1, 3) * kGrid;
    netbase::TimePoint announce = t0 + rng.uniform_int(0, 4) * kGrid;
    for (std::int64_t cycle = 0, n = rng.uniform_int(2, 4); cycle < n; ++cycle) {
      const netbase::TimePoint deadline = announce + hold + kThreshold;
      out.schedule.push_back({prefix, announce, announce + hold, rng.chance(0.15)});
      instants.insert(instants.end(), {announce, announce + hold, deadline});
      out.end = std::max(out.end, deadline + 1);
      // The next cycle recycles the prefix before, exactly at, or
      // after this one's deadline.
      switch (rng.uniform_int(0, 2)) {
        case 0: announce += rng.uniform_int(1, (hold + kThreshold) / kGrid - 1) * kGrid; break;
        case 1: announce = deadline; break;
        default: announce = deadline + rng.uniform_int(1, 2 * kThreshold / kGrid) * kGrid; break;
      }
    }
  }
  rng.shuffle(out.schedule);

  std::vector<zombie::PeerKey> peers = {
      {64500, netbase::IpAddress::parse("192.0.2.1")},
      {64500, netbase::IpAddress::parse("2001:db8::1")},
  };
  for (std::int64_t i = 2, n = rng.uniform_int(3, 5); i < n; ++i) {
    peers.push_back({static_cast<bgp::Asn>(64500 + i),
                     netbase::IpAddress::parse("192.0.2." + std::to_string(i + 1))});
  }

  const netbase::TimePoint first = t0 - kGrid;
  const std::int64_t steps = (out.end + kGrid - first) / kGrid;
  for (std::int64_t r = 0, n = rng.uniform_int(20, 60); r < n; ++r) {
    const netbase::TimePoint t = rng.chance(0.5) ? instants[rng.index(instants.size())]
                                                 : first + rng.uniform_int(0, steps) * kGrid;
    const zombie::PeerKey& peer = peers[rng.index(peers.size())];
    if (rng.chance(0.1)) {
      mrt::Bgp4mpStateChange change;
      change.timestamp = t;
      change.peer_asn = peer.asn;
      change.peer_address = peer.address;
      change.old_state = bgp::SessionState::kEstablished;
      change.new_state = bgp::SessionState::kIdle;
      out.records.emplace_back(change);
      continue;
    }
    mrt::Bgp4mpMessage msg;
    msg.timestamp = t;
    msg.peer_asn = peer.asn;
    msg.peer_address = peer.address;
    for (std::int64_t k = 0, m = rng.uniform_int(1, 3); k < m; ++k) {
      const netbase::Prefix& prefix = prefixes[rng.index(prefixes.size())];
      auto& list = rng.chance(0.6) ? msg.update.announced : msg.update.withdrawn;
      if (std::find(list.begin(), list.end(), prefix) == list.end()) list.push_back(prefix);
    }
    if (!msg.update.announced.empty())
      msg.update.attributes.as_path = bgp::AsPath{peer.asn, rng.chance(0.5) ? 3356u : 1299u, 210312};
    out.records.emplace_back(std::move(msg));
  }
  std::stable_sort(out.records.begin(), out.records.end(),
                   [](const mrt::MrtRecord& a, const mrt::MrtRecord& b) {
                     return mrt::record_timestamp(a) < mrt::record_timestamp(b);
                   });
  return out;
}

/// The whole schedule registered before the first record.
inline void drive_upfront(zombie::RealTimeZombieDetector& detector, const Stream& stream) {
  for (const auto& event : stream.schedule) detector.expect(event);
  for (const auto& record : stream.records) detector.ingest(record);
  detector.advance(stream.end);
}

/// The reference: the stream-order release live shard workers ran
/// before the detector owned its schedule. Events in (announce_time,
/// registration) order, each handed to expect() once the stream
/// reaches its announce_time, after advance(announce_time - 1).
inline void drive_in_stream_order(zombie::RealTimeZombieDetector& detector,
                                  const Stream& stream) {
  std::vector<beacon::BeaconEvent> events = stream.schedule;
  std::stable_sort(events.begin(), events.end(),
                   [](const beacon::BeaconEvent& a, const beacon::BeaconEvent& b) {
                     return a.announce_time < b.announce_time;
                   });
  std::size_t next = 0;
  const auto release_until = [&](netbase::TimePoint t) {
    for (; next < events.size() && events[next].announce_time <= t; ++next) {
      detector.advance(events[next].announce_time - 1);
      detector.expect(events[next]);
    }
  };
  for (const auto& record : stream.records) {
    release_until(mrt::record_timestamp(record));
    detector.ingest(record);
  }
  release_until(stream.end);
  detector.advance(stream.end);
}

/// Every alert, resolution and window close of one detector, in call
/// order, one line each.
inline void record_trace(zombie::RealTimeZombieDetector& detector,
                         std::vector<std::string>& trace) {
  detector.on_alert([&trace](const zombie::ZombieAlert& a) {
    trace.push_back("alert " + a.prefix.to_string() + " " + zombie::to_string(a.peer) +
                    " withdrawn " + std::to_string(a.withdrawn_at) + " raised " +
                    std::to_string(a.raised_at) + (a.resurrected ? " resurrected " : " ") +
                    a.stuck_path.to_string());
  });
  detector.on_resolution([&trace](const zombie::ZombieResolution& r) {
    trace.push_back("resolve " + r.prefix.to_string() + " " + zombie::to_string(r.peer) +
                    " withdrawn " + std::to_string(r.withdrawn_at) + " at " +
                    std::to_string(r.resolved_at));
  });
  detector.on_window_close([&trace](const zombie::WindowPeers& window) {
    std::string line = "close";
    for (const auto& [peer, state] : window) {
      line += " " + zombie::to_string(peer) + ":" + (state.announced ? "A" : "-") +
              (state.alerted ? "Z" : "-") + (state.ann_seen ? "a" : "-") +
              (state.wd_seen ? "w" : "-");
    }
    trace.push_back(line);
  });
}

/// The schedule and records as text, for a failure message.
inline std::string describe(const Stream& stream) {
  std::string out = "schedule (registration order):\n";
  for (const auto& e : stream.schedule) {
    out += "  " + e.prefix.to_string() + " announce " + std::to_string(e.announce_time) +
           " withdraw " + std::to_string(e.withdraw_time) +
           (e.superseded ? " superseded\n" : "\n");
  }
  out += "records:\n";
  for (const auto& record : stream.records) out += "  " + mrt::record_summary(record) + "\n";
  return out;
}

}  // namespace zombiescope::random_stream
