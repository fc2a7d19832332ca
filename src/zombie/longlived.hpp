// zombie/longlived.hpp — §5 of the paper: long-lived zombie detection
// with the new beacons.
//
// Two data sources, as in the paper:
//  * update archives — a prefix is stuck at a peer if, at
//    withdrawal + threshold, its last update is not a withdrawal;
//    swept over thresholds for Fig. 2 from one pass over the stream;
//  * 8-hourly RIB dumps — coarser, but scale to ~a year of monitoring
//    for the lifespan CDF (Fig. 3), the resurrection timelines
//    (Fig. 4), and the §5.2 case studies.

#pragma once

#include <set>
#include <span>
#include <vector>

#include "beacon/schedule.hpp"
#include "mrt/record.hpp"
#include "zombie/types.hpp"

namespace zombiescope::zombie {

/// Detection settings shared by the §3, §5 and RIB-dump passes. Beacon
/// events flagged superseded are always skipped (approach-2 collision
/// rule: "we study only the latter prefix").
struct LongLivedConfig {
  /// Peer sessions to ignore entirely (noisy peers).
  std::set<PeerKey> excluded_peers;
};

/// Result of one detection pass at a fixed threshold.
struct LongLivedResult {
  std::vector<ZombieOutbreak> outbreaks;           // one per stuck beacon event
  int total_announcements = 0;                     // studied events
  double outbreak_fraction() const {
    return total_announcements == 0
               ? 0.0
               : static_cast<double>(outbreaks.size()) / total_announcements;
  }
  int route_count() const {
    int n = 0;
    for (const auto& o : outbreaks) n += o.route_count();
    return n;
  }
};

/// One point of the Fig. 2 threshold sweep.
struct SweepPoint {
  netbase::Duration threshold = 0;
  int outbreaks = 0;
  int routes = 0;
  double announcement_fraction = 0.0;  // outbreaks / studied announcements
};

class LongLivedZombieDetector {
 public:
  explicit LongLivedZombieDetector(LongLivedConfig config) : config_(std::move(config)) {}

  /// Detects zombies at a fixed threshold after each beacon's
  /// withdrawal. `records` must be time-sorted. Outbreaks come in
  /// studied-event order, routes within one in PeerKey order.
  LongLivedResult detect(std::span<const mrt::MrtRecord> records,
                         std::span<const beacon::BeaconEvent> events,
                         netbase::Duration threshold) const;

  /// Fig. 2: one point per threshold, in the caller's order (unsorted
  /// and repeated thresholds are fine; none gives none). Each point
  /// equals detect() at its threshold, and the journal gets the events
  /// that calling detect() once per threshold would emit, in that
  /// order. One pass over `records` (beacon_fold.cpp) answers every
  /// threshold.
  std::vector<SweepPoint> sweep(std::span<const mrt::MrtRecord> records,
                                std::span<const beacon::BeaconEvent> events,
                                std::span<const netbase::Duration> thresholds) const;

 private:
  LongLivedConfig config_;
};

// ---------------------------------------------------------------------------
// RIB-dump lifespan analysis
// ---------------------------------------------------------------------------

/// A maximal run of consecutive RIB dumps in which one peer held one
/// prefix.
struct PresenceInterval {
  PeerKey peer;
  netbase::TimePoint first_seen = 0;
  netbase::TimePoint last_seen = 0;
  bgp::AsPath path;  // path at last sighting
};

/// Lifespan of one zombie outbreak (per prefix, across peers).
struct OutbreakLifespan {
  netbase::Prefix prefix;
  /// The final beacon withdrawal for this prefix.
  netbase::TimePoint withdraw_time = 0;
  /// Last time any peer still held the route.
  netbase::TimePoint last_seen = 0;
  /// Total lifespan including invisibility gaps (the paper counts the
  /// resurrected prefix as stuck "in total ~8.5 months").
  netbase::Duration duration() const { return last_seen - withdraw_time; }
  std::vector<PresenceInterval> intervals;
  /// Resurrections: reappearances after the route had vanished from
  /// every peer for at least one dump period, with no beacon
  /// announcement in between.
  struct Resurrection {
    netbase::TimePoint vanished_at = 0;
    netbase::TimePoint reappeared_at = 0;
    PeerKey peer;  // the peer where it reappeared
  };
  std::vector<Resurrection> resurrections;
};

class LifespanAnalyzer {
 public:
  explicit LifespanAnalyzer(LongLivedConfig config) : config_(std::move(config)) {}

  /// Builds outbreak lifespans from TABLE_DUMP_V2 archives (must be
  /// time-sorted; PeerIndexTable precedes its RIB records as written
  /// by the collector). Only prefixes of studied beacon events are
  /// analyzed; presence before a prefix's final withdrawal is ignored.
  std::vector<OutbreakLifespan> analyze(std::span<const mrt::MrtRecord> rib_dumps,
                                        std::span<const beacon::BeaconEvent> events,
                                        netbase::Duration dump_interval) const;

 private:
  LongLivedConfig config_;
};

}  // namespace zombiescope::zombie
