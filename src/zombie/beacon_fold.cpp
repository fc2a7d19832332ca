// zombie/beacon_fold.cpp — the one pass over update records that the
// three beacon detectors read: LongLivedZombieDetector (§5),
// IntervalZombieDetector (§3) and LookingGlassDetector (Tables 2-3).
//
// The paper asks one question of every beacon event: at withdraw + T,
// is the peer's last update inside the event's window an announcement?
// A studied event's window at threshold T is [announce, min(next
// announcement of the prefix, withdraw + T)]. A record of prefix p at
// time t belongs to the last studied event of p announced at or before
// t, whatever T is; T only decides whether t falls inside that event's
// window. So one fold over the widest window (the largest threshold)
// answers every threshold: each (event, peer) cell keeps its last
// update at or before withdraw + the smallest threshold, plus every
// update from the first one past it on, and a threshold's answer is the
// last of those inside its window. Session-down flushes enter the same
// history. §5 reads the answer; §3 reads it with the stuck
// announcement's Aggregator clock, the route held at the withdrawal
// and whether the peer announced at all. The looking glass polls at
// withdraw + T but serves each peer's state as of poll - lag, with the
// lag drawn per peer: its fold spans [withdraw + T - the largest lag,
// withdraw + T], its candidates are the cells with an update up to the
// poll, and each is read again at its lagged instant. Which peers draw
// a stale snapshot depends on the draw order, so that order is fixed:
// events by announce time as std::sort leaves them, then peers in
// PeerKey order.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "beacon/clock.hpp"
#include "netbase/rng.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "zombie/detector_metrics.hpp"
#include "zombie/interval_detector.hpp"
#include "zombie/longlived.hpp"
#include "zombie/lookingglass.hpp"

namespace zombiescope::zombie {

namespace {

using internal::PassTimer;
using internal::detector_metrics;
using netbase::Duration;
using netbase::Prefix;
using netbase::TimePoint;

/// One (studied event, peer) cell read at withdraw + T. The messages
/// point into the caller's records.
struct CellRead {
  PeerKey peer;
  /// The last update at or before the check when it is an
  /// announcement: the stuck route. Null when withdrawn or flushed.
  const mrt::Bgp4mpMessage* stuck = nullptr;
  /// The announcement the peer held at the withdrawal (Fig. 6's normal
  /// path). Null when it held none.
  const mrt::Bgp4mpMessage* normal = nullptr;
  /// Whether the peer announced the beacon at or before the check.
  bool announced = false;
  std::uint32_t cell = 0;  // its index, for BeaconFold::state_at
};

class BeaconFold {
 public:
  /// One pass over time-sorted `records` for the studied (not
  /// superseded) `events`, answering every threshold in [min_threshold,
  /// max_threshold].
  BeaconFold(const LongLivedConfig& config, std::span<const mrt::MrtRecord> records,
             std::span<const beacon::BeaconEvent> events, Duration min_threshold,
             Duration max_threshold)
      : config_(config), min_threshold_(min_threshold) {
    detector_metrics().records_scanned.inc(records.size());
    for (const auto& event : events) {
      if (event.superseded) continue;  // the collision rule: "we study only the latter prefix"
      by_prefix_[event.prefix].push_back(static_cast<std::uint32_t>(studied_.size()));
      studied_.push_back(&event);
    }
    window_end_.resize(studied_.size());
    for (auto& [prefix, list] : by_prefix_) {
      (void)prefix;
      std::sort(list.begin(), list.end(), [this](std::uint32_t a, std::uint32_t b) {
        return studied_[a]->announce_time < studied_[b]->announce_time;
      });
      for (std::size_t i = 0; i < list.size(); ++i) {
        TimePoint end = studied_[list[i]]->withdraw_time + max_threshold;
        if (i + 1 < list.size()) end = std::min(end, studied_[list[i + 1]]->announce_time - 1);
        window_end_[list[i]] = end;
      }
    }
    cell_ids_.resize(studied_.size());

    for (const auto& record : records) {
      if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record)) {
        const std::uint32_t peer = peer_id({msg->peer_asn, msg->peer_address});
        if (excluded_[peer]) continue;
        const TimePoint t = msg->timestamp;
        for (const auto& prefix : msg->update.withdrawn)
          if (const std::uint32_t event = event_at(prefix, t); event != kNone)
            observe(event, peer, t, nullptr);
        for (const auto& prefix : msg->update.announced)
          if (const std::uint32_t event = event_at(prefix, t); event != kNone)
            observe(event, peer, t, msg);
      } else if (const auto* state = std::get_if<mrt::Bgp4mpStateChange>(&record)) {
        if (state->old_state == bgp::SessionState::kEstablished &&
            state->new_state != bgp::SessionState::kEstablished)
          flush(peer_id({state->peer_asn, state->peer_address}), state->timestamp);
      }
    }

    peer_order_.resize(peers_.size());
    std::iota(peer_order_.begin(), peer_order_.end(), 0u);
    std::sort(peer_order_.begin(), peer_order_.end(),
              [this](std::uint32_t a, std::uint32_t b) { return peers_[a] < peers_[b]; });
  }

  /// The studied events, in the caller's order.
  std::uint32_t studied() const { return static_cast<std::uint32_t>(studied_.size()); }
  const beacon::BeaconEvent& event(std::uint32_t index) const { return *studied_[index]; }
  /// How many (event, peer) cells saw an update: a bound on any read.
  std::size_t cells() const { return cells_.size(); }

  /// Fills `out` with the cells of studied event `index` that hold an
  /// announcement or withdrawal at or before withdraw + `threshold`, in
  /// PeerKey order, and counts them as candidates.
  void read(std::uint32_t index, Duration threshold, std::vector<CellRead>& out) const {
    out.clear();
    const TimePoint limit = studied_[index]->withdraw_time + threshold;
    if (!cell_ids_[index].empty()) {  // else no record of the prefix in the window
      for (const std::uint32_t peer : peer_order_) {
        const std::uint32_t id = cell_id(index, peer);
        if (id == kNone) continue;
        const Cell& cell = cells_[id];
        if (cell.first_at > limit) continue;  // no update inside this window
        out.push_back(
            {peers_[peer], state_at(id, limit), cell.normal, cell.announced_at <= limit, id});
      }
    }
    detector_metrics().candidates.inc(out.size());
  }

  /// The announcement cell `cell` held at `t`, or null when withdrawn or
  /// flushed; `t` at or past withdraw + the smallest threshold.
  const mrt::Bgp4mpMessage* state_at(std::uint32_t cell, TimePoint t) const {
    for (std::uint32_t i = cells_[cell].tail; i != kNone; i = tail_[i].prev)
      if (tail_[i].at <= t) return tail_[i].message;
    return cells_[cell].base;
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();

  /// The history of one (studied event, peer) pair. Null messages mean
  /// withdrawn or flushed.
  struct Cell {
    TimePoint first_at = 0;  // earliest announcement or withdrawal; flushes don't count
    TimePoint announced_at = kNever;             // earliest announcement
    const mrt::Bgp4mpMessage* normal = nullptr;  // state at withdraw_time
    const mrt::Bgp4mpMessage* base = nullptr;    // state before the first tail update
    std::uint32_t tail = kNone;                  // newest tail update
  };
  /// An update past withdraw + the smallest threshold, or any later one.
  struct TailUpdate {
    TimePoint at = 0;
    const mrt::Bgp4mpMessage* message = nullptr;
    std::uint32_t prev = kNone;  // the cell's previous tail update
  };
  struct PeerKeyHash {
    std::size_t operator()(const PeerKey& peer) const noexcept {
      return std::hash<netbase::IpAddress>{}(peer.address) ^ peer.asn;
    }
  };

  std::uint32_t peer_id(const PeerKey& peer) {
    const auto [it, inserted] =
        peer_ids_.try_emplace(peer, static_cast<std::uint32_t>(peers_.size()));
    if (inserted) {
      peers_.push_back(peer);
      excluded_.push_back(config_.excluded_peers.contains(peer));
    }
    return it->second;
  }

  std::uint32_t event_at(const Prefix& prefix, TimePoint t) const {
    const auto it = by_prefix_.find(prefix);
    if (it == by_prefix_.end()) return kNone;
    const auto& list = it->second;
    const auto jt = std::upper_bound(list.begin(), list.end(), t,
                                     [this](TimePoint value, std::uint32_t event) {
                                       return value < studied_[event]->announce_time;
                                     });
    if (jt == list.begin()) return kNone;
    const std::uint32_t event = *(jt - 1);
    return t <= window_end_[event] ? event : kNone;
  }

  std::uint32_t cell_id(std::uint32_t event, std::uint32_t peer) const {
    const std::vector<std::uint32_t>& row = cell_ids_[event];
    return peer < row.size() ? row[peer] : kNone;
  }

  void observe(std::uint32_t event, std::uint32_t peer, TimePoint t,
               const mrt::Bgp4mpMessage* announcement) {
    std::vector<std::uint32_t>& row = cell_ids_[event];
    if (row.size() <= peer) row.resize(peers_.size(), kNone);
    if (row[peer] == kNone) {
      row[peer] = static_cast<std::uint32_t>(cells_.size());
      cells_.push_back({.first_at = t});
    }
    Cell& cell = cells_[row[peer]];
    if (announcement != nullptr) cell.announced_at = std::min(cell.announced_at, t);
    append(cell, event, t, announcement);
  }

  // A session going down flushes the peer's route from every window
  // open at t that already holds an update from it.
  void flush(std::uint32_t peer, TimePoint t) {
    for (std::uint32_t event = 0; event < studied_.size(); ++event) {
      const std::uint32_t cell = cell_id(event, peer);
      if (cell == kNone) continue;
      if (t < studied_[event]->announce_time || t > window_end_[event]) continue;
      append(cells_[cell], event, t, nullptr);
    }
  }

  void append(Cell& cell, std::uint32_t event, TimePoint t,
              const mrt::Bgp4mpMessage* announcement) {
    if (t <= studied_[event]->withdraw_time) cell.normal = announcement;
    if (cell.tail == kNone && t <= studied_[event]->withdraw_time + min_threshold_) {
      cell.base = announcement;
      return;
    }
    tail_.push_back({t, announcement, cell.tail});
    cell.tail = static_cast<std::uint32_t>(tail_.size() - 1);
  }

  const LongLivedConfig& config_;
  const Duration min_threshold_;
  std::vector<const beacon::BeaconEvent*> studied_;
  // Each studied event's last instant in the widest window: withdraw +
  // the largest threshold, or the instant before the prefix's next
  // studied announcement when that comes first.
  std::vector<TimePoint> window_end_;
  std::unordered_map<Prefix, std::vector<std::uint32_t>> by_prefix_;  // by announce time
  std::unordered_map<PeerKey, std::uint32_t, PeerKeyHash> peer_ids_;
  std::vector<PeerKey> peers_;
  std::vector<bool> excluded_;
  std::vector<std::vector<std::uint32_t>> cell_ids_;  // [event][peer], kNone if none
  std::vector<Cell> cells_;
  std::vector<TailUpdate> tail_;
  std::vector<std::uint32_t> peer_order_;  // peer ids in PeerKey order
};

/// The route `peer` is stuck on when it holds `stuck` for `event`.
ZombieRoute stuck_route(const beacon::BeaconEvent& event, const PeerKey& peer,
                        const mrt::Bgp4mpMessage& stuck) {
  ZombieRoute route;
  route.peer = peer;
  route.prefix = event.prefix;
  route.interval_start = event.announce_time;
  route.withdraw_time = event.withdraw_time;
  route.path = stuck.update.attributes.as_path;
  return route;
}

/// Journals a stuck route found at `threshold`: the threshold crossing,
/// then the declaration, or the suppression of a duplicate.
void journal_stuck(const ZombieRoute& route, Duration threshold) {
  obs::Journal& journal = obs::Journal::global();
  if (!journal.enabled(obs::kCatDetector)) return;
  obs::JournalEvent ev;
  ev.type = obs::JournalEventType::kThresholdCrossed;
  ev.time = route.withdraw_time + threshold;
  ev.has_prefix = true;
  ev.prefix = route.prefix;
  ev.has_peer = true;
  ev.peer_asn = route.peer.asn;
  ev.peer_address = route.peer.address;
  ev.a = threshold;
  ev.b = route.withdraw_time;
  ev.c = route.interval_start;
  journal.emit<obs::kCatDetector>(ev);
  if (route.duplicate) {
    ev.type = obs::JournalEventType::kDuplicateSuppressed;
    ev.a = *route.aggregator_time;
    ev.b = route.interval_start;
    ev.c = 0;
  } else {
    ev.type = obs::JournalEventType::kZombieDeclared;
  }
  journal.emit<obs::kCatDetector>(ev);
}

/// What LongLivedZombieDetector::detect() at `threshold` returns, read
/// from the fold. Emits its journal events and counts its outbreaks and
/// routes.
LongLivedResult long_lived_at(const BeaconFold& fold, Duration threshold) {
  LongLivedResult result;
  result.total_announcements = static_cast<int>(fold.studied());
  std::vector<CellRead> cells;
  for (std::uint32_t index = 0; index < fold.studied(); ++index) {
    fold.read(index, threshold, cells);
    const beacon::BeaconEvent& event = fold.event(index);
    ZombieOutbreak outbreak{event.prefix, event.announce_time, event.withdraw_time, {}};
    for (const CellRead& cell : cells) {
      if (cell.stuck == nullptr) continue;
      outbreak.routes.push_back(stuck_route(event, cell.peer, *cell.stuck));
      journal_stuck(outbreak.routes.back(), threshold);
    }
    if (!outbreak.routes.empty()) result.outbreaks.push_back(std::move(outbreak));
  }
  detector_metrics().outbreaks.inc(result.outbreaks.size());
  detector_metrics().routes.inc(static_cast<std::uint64_t>(result.route_count()));
  return result;
}

}  // namespace

LongLivedResult LongLivedZombieDetector::detect(std::span<const mrt::MrtRecord> records,
                                                std::span<const beacon::BeaconEvent> events,
                                                Duration threshold) const {
  obs::ScopedSpan span("zombie.detect.longlived");
  PassTimer timer;
  return long_lived_at(BeaconFold(config_, records, events, threshold, threshold), threshold);
}

std::vector<SweepPoint> LongLivedZombieDetector::sweep(
    std::span<const mrt::MrtRecord> records, std::span<const beacon::BeaconEvent> events,
    std::span<const Duration> thresholds) const {
  std::vector<SweepPoint> out;
  if (thresholds.empty()) return out;
  obs::ScopedSpan span("zombie.sweep.longlived");
  PassTimer timer;
  const auto [lowest, highest] = std::minmax_element(thresholds.begin(), thresholds.end());
  const BeaconFold fold(config_, records, events, *lowest, *highest);
  for (const Duration threshold : thresholds) {
    const LongLivedResult result = long_lived_at(fold, threshold);
    SweepPoint point;
    point.threshold = threshold;
    point.outbreaks = static_cast<int>(result.outbreaks.size());
    point.routes = result.route_count();
    point.announcement_fraction = result.outbreak_fraction();
    out.push_back(point);
  }
  return out;
}

IntervalDetectionResult IntervalZombieDetector::detect(
    std::span<const mrt::MrtRecord> records, std::span<const beacon::BeaconEvent> events,
    Duration threshold) const {
  obs::ScopedSpan span("zombie.detect.interval");
  PassTimer timer;
  const BeaconFold fold(config_, records, events, threshold, threshold);
  IntervalDetectionResult result;
  result.observations.reserve(fold.cells());
  std::vector<CellRead> cells;
  for (std::uint32_t index = 0; index < fold.studied(); ++index) {
    fold.read(index, threshold, cells);
    const beacon::BeaconEvent& event = fold.event(index);
    ZombieOutbreak outbreak{event.prefix, event.announce_time, event.withdraw_time, {}};
    ZombieOutbreak deduped = outbreak;
    IntervalDetectionResult::Visibility visibility{event.prefix, event.announce_time, {}};
    std::vector<bgp::Asn>& asns = visibility.announcing_asns;
    asns.reserve(cells.size());
    // The normal paths sit in records far apart: ask for all of them
    // before reading the first.
    for (const CellRead& cell : cells)
      if (cell.normal != nullptr) __builtin_prefetch(&cell.normal->update.attributes.as_path);
    for (const CellRead& cell : cells) {
      // Cells come in PeerKey order, so by peer AS first.
      if (cell.announced && (asns.empty() || asns.back() != cell.peer.asn))
        asns.push_back(cell.peer.asn);
      if (cell.stuck == nullptr && cell.normal == nullptr) continue;  // no path to observe
      IntervalDetectionResult::PathObservation& observation = result.observations.emplace_back();
      observation.prefix = event.prefix;
      observation.interval_start = event.announce_time;
      observation.peer = cell.peer;
      if (cell.normal != nullptr) observation.normal_path = cell.normal->update.attributes.as_path;
      if (cell.stuck == nullptr) continue;  // withdrawn (or flushed) in time
      ZombieRoute route = stuck_route(event, cell.peer, *cell.stuck);
      if (const auto& aggregator = cell.stuck->update.attributes.aggregator)
        route.aggregator_time =
            beacon::decode_aggregator_clock(aggregator->address, cell.stuck->timestamp);
      // Revised methodology: a stuck announcement whose clock predates
      // this interval's announcement was already counted.
      route.duplicate =
          route.aggregator_time.has_value() && *route.aggregator_time < event.announce_time;
      journal_stuck(route, threshold);
      observation.zombie_path = route.path;
      observation.duplicate = route.duplicate;
      outbreak.routes.push_back(route);
      if (!route.duplicate) deduped.routes.push_back(route);
      result.routes.push_back(std::move(route));
    }
    if (!asns.empty()) {
      ++result.visible_prefixes;
      result.visibility.push_back(std::move(visibility));
    }
    if (!outbreak.routes.empty()) result.outbreaks_with_duplicates.push_back(std::move(outbreak));
    if (!deduped.routes.empty()) result.outbreaks_deduplicated.push_back(std::move(deduped));
  }
  detector_metrics().outbreaks.inc(result.outbreaks_deduplicated.size());
  detector_metrics().routes.inc(result.routes.size());
  return result;
}

LookingGlassResult LookingGlassDetector::detect(
    std::span<const mrt::MrtRecord> records, std::span<const beacon::BeaconEvent> events) const {
  // Every draw reads a cell at or after the poll minus the larger lag.
  const LongLivedConfig every_peer;
  const BeaconFold fold(every_peer, records, events,
                        kThreshold - std::max(config_.lag, kStaleLag), kThreshold);
  // The draw order the head comment fixes. Tables 2-3 depend on it, so
  // this stays std::sort: a stable sort would draw in another order.
  std::vector<std::uint32_t> order(fold.studied());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&fold](std::uint32_t a, std::uint32_t b) {
    return fold.event(a).announce_time < fold.event(b).announce_time;
  });
  netbase::Rng rng(kSeed);
  LookingGlassResult result;
  std::vector<CellRead> cells;
  for (const std::uint32_t index : order) {
    fold.read(index, kThreshold, cells);
    const beacon::BeaconEvent& event = fold.event(index);
    ZombieOutbreak outbreak{event.prefix, event.announce_time, event.withdraw_time, {}};
    for (const CellRead& cell : cells) {
      const Duration lag =
          rng.chance(config_.stale_snapshot_probability) ? kStaleLag : config_.lag;
      if (const auto* served = fold.state_at(cell.cell, event.withdraw_time + kThreshold - lag))
        outbreak.routes.push_back(stuck_route(event, cell.peer, *served));
    }
    if (outbreak.routes.empty()) continue;
    result.routes.insert(result.routes.end(), outbreak.routes.begin(), outbreak.routes.end());
    result.outbreaks.push_back(std::move(outbreak));
  }
  return result;
}

}  // namespace zombiescope::zombie
