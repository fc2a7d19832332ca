// live/peerq.hpp — zspeerq, live per-peer feed-quality accounting.
//
// The paper's central methodological fix is per-peer data quality:
// a handful of noisy peers (AS16347 at ~42.8 % stuck probability vs a
// 1.58 % average, Tables 4/5) must be detected and excluded or zombie
// counts are grossly inflated. Batch detection has that logic in
// zombie::NoisyPeerFilter; this module is its streaming twin for the
// zslive service, plus the feed-health bookkeeping an operator needs
// before trusting any live zombie count: who is feeding, who went
// silent, who misses beacon cycles.
//
// Three pieces:
//
//   PeerQAccumulator      per-shard, worker-private rolling counters
//                         updated on the hot path (update/withdrawal
//                         counts, last-seen stream time, session
//                         resets, stuck routes) and at each beacon
//                         window close the shard's detector reports
//                         (seen/missed cycles, miss streaks).
//                         Snapshotted into an immutable
//                         PeerQShardSnapshot at publish time.
//   merge + PeerTable     the service merges shard snapshots into one
//                         epoch-versioned table. Prefix-routed
//                         counters sum across shards; broadcast-
//                         derived ones (session resets) and last-seen
//                         take the max, because every shard saw the
//                         same state-change records.
//   PeerTableBuilder      the online noisy-peer classifier. The raw
//                         rule is NoisyPeerFilter's own median and
//                         verdict under the default NoisyPeerConfig:
//                         noisy iff p > probability_floor AND
//                         p > median_multiplier x median(all peers'
//                         p), with p = stuck / closed beacon cycles.
//                         The *published* classification adds two
//                         stabilizers so live output cannot flap:
//                         a minimum closed-cycle count plus a Wilson
//                         lower-bound gate before a peer may enter,
//                         and an enter/exit dwell (the raw verdict
//                         must repeat over `dwell` consecutive data
//                         epochs). build(converge=true) — what
//                         finalize() runs after a replay — snaps the
//                         published state to the raw memoryless rule,
//                         which is how the live classifier lands on
//                         the exact batch NoisyPeerFilter set
//                         (tests/live_e2e_test.cpp pins this).
//
// Equivalence accounting (why the live numbers equal batch):
//   * denominator: the shard's RealTimeZombieDetector owns the beacon
//     windows. Every non-superseded event it is given opens one, and
//     each window closes once — at withdraw + threshold, or when a
//     recycle of its prefix replaces it earlier — reporting its peers
//     to on_window_close(). After finalize() the summed closed-cycle
//     count equals LongLivedResult::total_announcements.
//   * numerator: LiveService feeds every batch-equivalent emerge
//     alert (raised exactly at the deadline; resurrections excluded)
//     into on_stuck() — one per (beacon event, peer), exactly one
//     batch ZombieRoute.
//   * universe: cells are created by BGP4MP updates, RIB entries
//     resolved through the last PeerIndexTable, and stuck routes —
//     the same membership rule StateTracker::peers() + the filter's
//     stats() produce. Session state changes never create cells.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mrt/record.hpp"
#include "netbase/ip.hpp"
#include "netbase/time.hpp"
#include "zombie/noisy.hpp"
#include "zombie/realtime.hpp"
#include "zombie/types.hpp"

namespace zombiescope::live {

struct PeerQConfig {
  /// Master switch: false compiles nothing out but skips every hook,
  /// snapshot, and endpoint body (the A/B the peerq_overhead bench
  /// measures).
  bool enabled = true;
  /// Enter/exit dwell: the raw verdict must disagree with the
  /// published state over this many consecutive data epochs before
  /// the published state flips.
  int dwell = 3;
};

/// Live-entry stabilizer (bypassed by build(converge=true)): a peer
/// may only *enter* the published noisy set once at least this many
/// beacon cycles closed service-wide and the Wilson lower bound of its
/// stuck probability clears the floor — thin early data cannot brand
/// a peer.
inline constexpr std::uint64_t kNoisyMinCycles = 20;
/// A peer with updates is "silent" once the stream clock moved this
/// far past its last update (journal kPeerSilent, counted in
/// silent_count / feeding_count).
inline constexpr netbase::Duration kSilentAfter = 30 * netbase::kMinute;
/// Bounded-cardinality top-K offender gauges
/// (zs_peer_topk_stuck_ppm_r<r> / zs_peer_topk_asn_r<r>).
inline constexpr std::size_t kTopKGauges = 3;

/// Wilson score interval for a binomial proportion — the streaming
/// confidence band served with every stuck-probability estimate
/// (z = 1.96 ≙ 95 %). {0, 1} when trials == 0 (no evidence yet).
struct WilsonInterval {
  double low = 0.0;
  double high = 1.0;
};
WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z = 1.96);

/// Rolling per-peer counters one shard worker owns. Plain integers —
/// worker-private, published only via immutable snapshots.
struct PeerCell {
  std::uint64_t updates = 0;        // BGP4MP update messages
  std::uint64_t announcements = 0;  // announced prefixes
  std::uint64_t withdrawals = 0;    // withdrawn prefixes
  netbase::TimePoint last_seen = 0; // stream time of the last update
  std::uint64_t session_resets = 0; // Established -> anything else
  std::uint64_t stuck = 0;          // batch-equivalent zombie routes
  std::uint64_t ann_seen = 0;       // closed cycles with the announcement seen
  std::uint64_t wd_seen = 0;        // closed cycles with the withdrawal seen
  std::uint64_t miss_streak = 0;    // consecutive closed cycles missed
};

/// Immutable per-shard publication; the peer-table side of
/// ShardSnapshot. `epoch` increments per publish so the service can
/// fingerprint "did any shard's peer data change".
struct PeerQShardSnapshot {
  std::uint64_t epoch = 0;
  netbase::TimePoint clock = 0;
  std::uint64_t cycles_closed = 0;  // non-superseded cycles fully closed
  std::map<zombie::PeerKey, PeerCell> peers;
};

/// The shard-worker accumulator. Single-threaded by construction
/// (lives on the worker stack, like the detector).
class PeerQAccumulator {
 public:
  void on_record(const mrt::MrtRecord& record);
  /// One batch-equivalent emerge alert (resurrections excluded by the
  /// caller).
  void on_stuck(const zombie::ZombieAlert& alert);
  /// One closed beacon cycle, from the shard detector's
  /// on_window_close: counts it, and each resident peer's seen or
  /// missed announcement, withdrawal and miss streak.
  void on_window_close(const zombie::WindowPeers& window);

  /// True when classifier-relevant state changed since the last
  /// snapshot (new peer, stuck route, cycle closed, session reset) —
  /// the worker's cue to republish without waiting for the interval.
  bool publish_due() const { return publish_due_; }

  std::uint64_t cycles_closed() const { return cycles_closed_; }
  std::size_t peer_count() const { return cells_.size(); }

  /// Immutable copy for readers; clears publish_due.
  std::shared_ptr<const PeerQShardSnapshot> snapshot(netbase::TimePoint clock,
                                                     std::uint64_t epoch);

 private:
  PeerCell& cell(const zombie::PeerKey& peer);

  std::map<zombie::PeerKey, PeerCell> cells_;
  /// One-entry MRU for cells_: MRT archives batch a session's updates,
  /// so consecutive records usually hit the same peer. std::map node
  /// references are stable, so the pointer stays valid until clear.
  zombie::PeerKey last_peer_;
  PeerCell* last_cell_ = nullptr;
  std::uint64_t cycles_closed_ = 0;
  mrt::PeerIndexTable last_index_;
  bool publish_due_ = false;
};

/// One row of the merged service-wide table.
struct PeerRow {
  zombie::PeerKey peer;
  std::uint64_t updates = 0;
  std::uint64_t announcements = 0;
  std::uint64_t withdrawals = 0;
  netbase::TimePoint last_seen = 0;
  std::uint64_t session_resets = 0;
  std::uint64_t stuck = 0;
  std::uint64_t ann_seen = 0;
  std::uint64_t wd_seen = 0;
  std::uint64_t miss_streak = 0;
  double probability = 0.0;  // stuck / total_cycles
  WilsonInterval wilson;
  bool noisy_raw = false;  // the memoryless NoisyPeerFilter verdict
  bool noisy = false;      // published (dwell-stabilized) verdict
  bool silent = false;     // fed before, nothing within kSilentAfter
};

/// Epoch-versioned merged table, immutable once built.
struct PeerTable {
  std::uint64_t fingerprint = 0;  // summed shard peerq epochs
  netbase::TimePoint clock = 0;
  std::uint64_t total_cycles = 0;
  double median_probability = 0.0;
  std::size_t noisy_count = 0;
  std::size_t silent_count = 0;
  std::size_t feeding_count = 0;  // updates > 0 and not silent
  std::vector<PeerRow> rows;      // sorted by PeerKey

  const PeerRow* find(const zombie::PeerKey& peer) const;
  std::set<zombie::PeerKey> noisy_set() const;
};

/// Merges shard snapshots and runs the classifier. Owns the published
/// per-peer state (dwell streaks, silence episodes); callers serialize
/// access (LiveService guards it with one mutex).
class PeerTableBuilder {
 public:
  explicit PeerTableBuilder(PeerQConfig config) : config_(std::move(config)) {}

  /// `new_data` gates dwell-streak advancement: pass true only when
  /// the merged fingerprint changed, so polling cannot age the
  /// hysteresis by itself. `converge` (finalize) snaps the published
  /// classification to the raw rule and flushes pending transitions.
  /// Emits kPeerNoisyEnter / kPeerNoisyExit / kPeerSilent journal
  /// events for every published transition.
  std::shared_ptr<const PeerTable> build(
      const std::vector<std::shared_ptr<const PeerQShardSnapshot>>& shards,
      netbase::TimePoint clock, bool new_data, bool converge);

 private:
  struct Published {
    bool noisy = false;
    int streak = 0;         // consecutive raw disagreements
    bool silent_logged = false;  // one kPeerSilent per episode
  };

  PeerQConfig config_;
  /// The raw rule: zombie::NoisyPeerConfig's floor and multiplier,
  /// which the live set must equal.
  zombie::NoisyPeerFilter rule_;
  std::map<zombie::PeerKey, Published> state_;
};

/// JSON for GET /peers (noisy_only = GET /peers/noisy, sorted by
/// descending stuck probability like NoisyPeerFilter::noisy_peers).
/// `epoch` is the service snapshot epoch the table was merged at.
std::string peer_table_json(const PeerTable& table, std::uint64_t epoch,
                            bool noisy_only);

}  // namespace zombiescope::live
