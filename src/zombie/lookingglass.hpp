// zombie/lookingglass.hpp — an emulation of the previous study's
// pipeline (Fontugne et al., PAM'19) for the Table 2/3 comparisons.
//
// The previous study identified stale prefixes in *real time* via the
// RIPEstat looking-glass service — a black box whose internal update
// delay is unknown and which went through several revisions during
// the measurement period (§3.1 of the paper). This detector models
// that class of pipeline: it polls at withdraw + 90 minutes, and the
// state it serves for a peer is the state as of `poll - lag`, or, with
// probability `stale_snapshot_probability`, as of `poll - 45 min`
// (the snapshot missed a whole refresh cycle). Both directions of
// disagreement with the raw-data methodology emerge from the lag:
//  * a withdrawal inside the lag window => looking-glass-only zombie
//    (false positive the raw method does not report);
//  * a late re-announcement inside the lag window => raw-only zombie
//    (the looking glass missed it).
// It also never applies the Aggregator dedup — the previous study did
// not have it.
//
// It is the third read of the one pass over the records that the §3
// and §5 detectors read (beacon_fold.cpp): the candidates are the
// peers with an update in the event's window up to the poll, and each
// peer's state is read at its lagged instant. The order of the stale
// draws decides which peers draw a stale snapshot, so beacon_fold.cpp
// fixes it.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "beacon/schedule.hpp"
#include "mrt/record.hpp"
#include "zombie/types.hpp"

namespace zombiescope::zombie {

struct LookingGlassConfig {
  /// Ordinary looking-glass state delay.
  netbase::Duration lag = 8 * netbase::kMinute;
  /// Probability that a peer's snapshot missed a whole refresh cycle.
  double stale_snapshot_probability = 0.02;
};

struct LookingGlassResult {
  std::vector<ZombieRoute> routes;          // no duplicate flagging
  std::vector<ZombieOutbreak> outbreaks;    // per (beacon, interval)
};

class LookingGlassDetector {
 public:
  explicit LookingGlassDetector(LookingGlassConfig config) : config_(config) {}

  /// Polls every studied event of `events` over time-sorted `records`.
  /// Outbreaks and routes come in draw order.
  LookingGlassResult detect(std::span<const mrt::MrtRecord> records,
                            std::span<const beacon::BeaconEvent> events) const;

 private:
  /// Stuck threshold of the poll, as in the raw methodology.
  static constexpr netbase::Duration kThreshold = 90 * netbase::kMinute;
  /// The age of a snapshot that missed a whole refresh cycle.
  static constexpr netbase::Duration kStaleLag = 45 * netbase::kMinute;
  /// Deterministic seed for the stale-snapshot draws.
  static constexpr std::uint64_t kSeed = 20180719;

  LookingGlassConfig config_;
};

/// Set-difference bookkeeping for Table 3: how many zombie routes /
/// outbreaks appear in `ours` but not `theirs`, per address family.
struct MissingCounts {
  int routes_v4 = 0;
  int routes_v6 = 0;
  int outbreaks_v4 = 0;
  int outbreaks_v6 = 0;
};

MissingCounts count_missing(std::span<const ZombieRoute> ours,
                            std::span<const ZombieOutbreak> our_outbreaks,
                            std::span<const ZombieRoute> theirs,
                            std::span<const ZombieOutbreak> their_outbreaks);

}  // namespace zombiescope::zombie
