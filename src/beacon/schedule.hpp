// beacon/schedule.hpp — beacon schedules: the classic RIPE RIS
// 4-hour/2-hour cycle and the paper's new 15-minute methodology with
// 24-hour or 15-day prefix recycling.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/types.hpp"
#include "netbase/ip.hpp"
#include "netbase/time.hpp"

namespace zombiescope::beacon {

/// One scheduled announce/withdraw pair for one prefix.
struct BeaconEvent {
  netbase::Prefix prefix;
  netbase::TimePoint announce_time = 0;
  netbase::TimePoint withdraw_time = 0;
  /// Approach-2 collision bug: two slots of the same day map to the
  /// same prefix; the paper studies only the latter. The earlier slot
  /// is marked superseded (it still happens on the wire).
  bool superseded = false;
};

/// The RIPE RIS beacon schedule: every beacon prefix is announced at
/// 00:00/04:00/.../20:00 UTC and withdrawn two hours later. Every
/// announcement carries the Aggregator clock.
class RisBeaconSchedule {
 public:
  /// Default beacon set resembling the era of [Fontugne et al. 2019]:
  /// 13 IPv4 /24s (84.205.64+i.0/24) and 14 IPv6 /48s
  /// (2001:7fb:fe00+i::/48).
  static RisBeaconSchedule classic();

  RisBeaconSchedule(std::vector<netbase::Prefix> prefixes) : prefixes_(std::move(prefixes)) {}

  const std::vector<netbase::Prefix>& prefixes() const { return prefixes_; }

  /// All events with announce_time in [start, end).
  std::vector<BeaconEvent> events(netbase::TimePoint start, netbase::TimePoint end) const;

  static constexpr netbase::Duration kPeriod = 4 * netbase::kHour;
  static constexpr netbase::Duration kUpTime = 2 * netbase::kHour;

 private:
  std::vector<netbase::Prefix> prefixes_;
};

/// The paper's beacon methodology (§4): a different /48 announced
/// every 15 minutes (at :00, :15, :30, :45), withdrawn 15 minutes
/// later; prefixes recycle after 24 hours (approach 1) or 15 days
/// (approach 2, with the documented encoding-collision bug).
class LongLivedBeaconSchedule {
 public:
  enum class Approach {
    kDaily,       // "2a0d:3dc1:(HHMM)::/48", recycled every 24 h
    kFifteenDay,  // "2a0d:3dc1:(HH)(minute+day%15)::/48", recycled every 15 days
  };

  LongLivedBeaconSchedule(Approach approach, netbase::Prefix covering)
      : approach_(approach), covering_(covering) {}

  /// The paper's deployment: beacons under 2a0d:3dc1::/32.
  static LongLivedBeaconSchedule paper_deployment(Approach approach);

  Approach approach() const { return approach_; }
  const netbase::Prefix& covering() const { return covering_; }

  /// The beacon prefix for the slot starting at `slot_time` (must be
  /// on a 15-minute boundary). This is where the approach-2 collision
  /// bug lives: distinct slots can map to the same prefix.
  netbase::Prefix prefix_for(netbase::TimePoint slot_time) const;

  /// All events with announce_time in [start, end), slot every 15
  /// minutes; approach-2 same-day collisions are resolved by marking
  /// the earlier event superseded (footnote 3: "we study only the
  /// latter prefix").
  std::vector<BeaconEvent> events(netbase::TimePoint start, netbase::TimePoint end) const;

  static constexpr netbase::Duration kSlot = 15 * netbase::kMinute;
  static constexpr netbase::Duration kUpTime = 15 * netbase::kMinute;

 private:
  Approach approach_;
  netbase::Prefix covering_;
};

/// The events in [start, end) of a schedule named on a command line:
/// "ris" (the classic RIS beacons), "daily" or "fifteen" (the paper's
/// deployment, approach 1 or 2). nullopt for any other name.
std::optional<std::vector<BeaconEvent>> schedule_events(std::string_view name,
                                                        netbase::TimePoint start,
                                                        netbase::TimePoint end);

}  // namespace zombiescope::beacon
