// zombie/interval_detector.hpp — the paper's §3 replication
// methodology for RIPE RIS beacons.
//
// Each beacon announcement opens an interval that is processed with no
// prior routing state. A beacon is a zombie at a peer if, at
// withdraw_time + threshold, the peer's last update inside the window
// [announce, min(next announcement of the prefix, withdraw + T)] is an
// announcement. The *revised* methodology additionally decodes the
// Aggregator IP clock of the stuck announcement: if it predates this
// interval's announcement, the zombie belongs to a previous interval
// and is a duplicate (double-counting elimination). Noisy peers can
// be excluded. §5 asks the same question, and one pass over the
// records answers both (beacon_fold.cpp).

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "beacon/schedule.hpp"
#include "mrt/record.hpp"
#include "zombie/longlived.hpp"
#include "zombie/types.hpp"

namespace zombiescope::zombie {

struct IntervalDetectionResult {
  /// Every stuck route found, including duplicates (flagged).
  std::vector<ZombieRoute> routes;
  /// Outbreaks including duplicates — "with double-counting".
  std::vector<ZombieOutbreak> outbreaks_with_duplicates;
  /// Outbreaks after the Aggregator filter — "without double-counting".
  std::vector<ZombieOutbreak> outbreaks_deduplicated;
  /// ⟨beacon, interval⟩ pairs visible at >= 1 peer (Table 1's
  /// "#visible prefixes").
  int visible_prefixes = 0;
  /// Per ⟨beacon, interval⟩ peer-AS visibility, for emergence rates:
  /// pairs (prefix, interval_start, peer ASNs that announced).
  struct Visibility {
    netbase::Prefix prefix;
    netbase::TimePoint interval_start;
    std::vector<bgp::Asn> announcing_asns;  // sorted, distinct
  };
  std::vector<Visibility> visibility;

  /// Per ⟨beacon, interval, peer⟩ path observation for the Fig. 6
  /// analysis: the "normal" path held when the beacon was withdrawn
  /// and, if the peer became a zombie, the stuck path.
  struct PathObservation {
    netbase::Prefix prefix;
    netbase::TimePoint interval_start = 0;
    PeerKey peer;
    std::optional<bgp::AsPath> normal_path;  // best path at withdraw time
    std::optional<bgp::AsPath> zombie_path;  // stuck path at check time
    bool duplicate = false;                  // zombie flagged by the Aggregator filter
    bool is_zombie() const { return zombie_path.has_value(); }
  };
  std::vector<PathObservation> observations;
};

class IntervalZombieDetector {
 public:
  explicit IntervalZombieDetector(LongLivedConfig config) : config_(std::move(config)) {}

  /// Runs detection at `threshold` after each beacon's withdrawal (the
  /// paper: 90 minutes) over a time-sorted record stream for the given
  /// beacon events (from RisBeaconSchedule::events). Every list comes
  /// in event order, and routes within an event in PeerKey order.
  IntervalDetectionResult detect(std::span<const mrt::MrtRecord> records,
                                 std::span<const beacon::BeaconEvent> events,
                                 netbase::Duration threshold) const;

 private:
  LongLivedConfig config_;
};

}  // namespace zombiescope::zombie
