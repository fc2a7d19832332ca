#include "zombie/longlived.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "zombie/detector_metrics.hpp"

namespace zombiescope::zombie {

namespace {

using internal::PassTimer;
using internal::detector_metrics;
using netbase::Duration;
using netbase::Prefix;
using netbase::TimePoint;

}  // namespace

// A studied event's check window at threshold T is [announce,
// withdraw + T]. A record of prefix p at time t belongs to the last
// studied event of p announced at or before t, whatever T is; T only
// decides whether t falls inside that event's window. So one fold over
// the widest window (the largest threshold) answers every threshold:
// each (event, peer) cell keeps its last update at or before withdraw
// + the smallest threshold, plus every update from the first one past
// it on, and a threshold's answer is the last of those inside its
// window. Session-down flushes enter the same history.
class LongLivedZombieDetector::Fold {
 public:
  Fold(const LongLivedConfig& config, std::span<const mrt::MrtRecord> records,
       std::span<const beacon::BeaconEvent> events, Duration min_threshold,
       Duration max_threshold);

  /// What detect() at `threshold` returns. Emits its journal events and
  /// counts its candidates, outbreaks and routes.
  LongLivedResult result(Duration threshold) const;

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// The history of one (studied event, peer) pair. Paths point into
  /// the caller's records; null means withdrawn or flushed.
  struct Cell {
    TimePoint first_at = 0;  // earliest announcement or withdrawal; flushes don't count
    const bgp::AsPath* base = nullptr;  // state before the first tail update
    std::uint32_t tail = kNone;         // newest tail update
  };
  /// An update past withdraw + the smallest threshold, or any later one.
  struct TailUpdate {
    TimePoint at = 0;
    const bgp::AsPath* path = nullptr;
    std::uint32_t prev = kNone;  // the cell's previous tail update
  };
  struct PeerKeyHash {
    std::size_t operator()(const PeerKey& peer) const noexcept {
      return std::hash<netbase::IpAddress>{}(peer.address) ^ peer.asn;
    }
  };

  std::uint32_t peer_id(const PeerKey& peer);
  std::uint32_t event_at(const Prefix& prefix, TimePoint t) const;
  std::uint32_t cell_id(std::uint32_t event, std::uint32_t peer) const {
    const std::vector<std::uint32_t>& row = cell_ids_[event];
    return peer < row.size() ? row[peer] : kNone;
  }
  void observe(std::uint32_t event, std::uint32_t peer, TimePoint t, const bgp::AsPath* path);
  void flush(std::uint32_t peer, TimePoint t);
  void append(Cell& cell, std::uint32_t event, TimePoint t, const bgp::AsPath* path);
  const bgp::AsPath* path_at(const Cell& cell, TimePoint limit) const;

  const LongLivedConfig& config_;
  const Duration min_threshold_;
  const Duration max_threshold_;
  std::vector<const beacon::BeaconEvent*> studied_;
  // Studied events per prefix, by announce time. Beacon prefixes
  // recycle no faster than daily, and threshold windows are a few
  // hours, so windows of the same prefix never overlap.
  std::unordered_map<Prefix, std::vector<std::uint32_t>> by_prefix_;
  std::unordered_map<PeerKey, std::uint32_t, PeerKeyHash> peer_ids_;
  std::vector<PeerKey> peers_;
  std::vector<bool> excluded_;
  std::vector<std::vector<std::uint32_t>> cell_ids_;  // [event][peer], kNone if none
  std::vector<Cell> cells_;
  std::vector<TailUpdate> tail_;
  std::vector<std::uint32_t> peer_order_;  // peer ids in PeerKey order
};

LongLivedZombieDetector::Fold::Fold(const LongLivedConfig& config,
                                    std::span<const mrt::MrtRecord> records,
                                    std::span<const beacon::BeaconEvent> events,
                                    Duration min_threshold, Duration max_threshold)
    : config_(config), min_threshold_(min_threshold), max_threshold_(max_threshold) {
  detector_metrics().records_scanned.inc(records.size());
  for (const auto& event : events) {
    if (config_.skip_superseded && event.superseded) continue;
    by_prefix_[event.prefix].push_back(static_cast<std::uint32_t>(studied_.size()));
    studied_.push_back(&event);
  }
  for (auto& [prefix, list] : by_prefix_) {
    (void)prefix;
    std::sort(list.begin(), list.end(), [this](std::uint32_t a, std::uint32_t b) {
      return studied_[a]->announce_time < studied_[b]->announce_time;
    });
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
          observe(event, peer, t, &msg->update.attributes.as_path);
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

std::uint32_t LongLivedZombieDetector::Fold::peer_id(const PeerKey& peer) {
  const auto [it, inserted] =
      peer_ids_.try_emplace(peer, static_cast<std::uint32_t>(peers_.size()));
  if (inserted) {
    peers_.push_back(peer);
    excluded_.push_back(config_.excluded_peers.contains(peer) ||
                        config_.excluded_peer_asns.contains(peer.asn));
  }
  return it->second;
}

std::uint32_t LongLivedZombieDetector::Fold::event_at(const Prefix& prefix, TimePoint t) const {
  const auto it = by_prefix_.find(prefix);
  if (it == by_prefix_.end()) return kNone;
  const auto& list = it->second;
  const auto jt = std::upper_bound(list.begin(), list.end(), t, [this](TimePoint value,
                                                                       std::uint32_t event) {
    return value < studied_[event]->announce_time;
  });
  if (jt == list.begin()) return kNone;
  const std::uint32_t event = *(jt - 1);
  return t <= studied_[event]->withdraw_time + max_threshold_ ? event : kNone;
}

void LongLivedZombieDetector::Fold::observe(std::uint32_t event, std::uint32_t peer,
                                            TimePoint t, const bgp::AsPath* path) {
  std::vector<std::uint32_t>& row = cell_ids_[event];
  if (row.size() <= peer) row.resize(peers_.size(), kNone);
  if (row[peer] == kNone) {
    row[peer] = static_cast<std::uint32_t>(cells_.size());
    cells_.push_back({.first_at = t});
  }
  Cell& cell = cells_[row[peer]];
  cell.first_at = std::min(cell.first_at, t);
  append(cell, event, t, path);
}

// A session going down flushes the peer's route from every window open
// at t that already holds an update from it.
void LongLivedZombieDetector::Fold::flush(std::uint32_t peer, TimePoint t) {
  for (std::uint32_t event = 0; event < studied_.size(); ++event) {
    const std::uint32_t cell = cell_id(event, peer);
    if (cell == kNone) continue;
    const beacon::BeaconEvent& e = *studied_[event];
    if (t < e.announce_time || t > e.withdraw_time + max_threshold_) continue;
    append(cells_[cell], event, t, nullptr);
  }
}

void LongLivedZombieDetector::Fold::append(Cell& cell, std::uint32_t event, TimePoint t,
                                           const bgp::AsPath* path) {
  if (cell.tail == kNone && t <= studied_[event]->withdraw_time + min_threshold_) {
    cell.base = path;
    return;
  }
  tail_.push_back({t, path, cell.tail});
  cell.tail = static_cast<std::uint32_t>(tail_.size() - 1);
}

const bgp::AsPath* LongLivedZombieDetector::Fold::path_at(const Cell& cell,
                                                          TimePoint limit) const {
  for (std::uint32_t i = cell.tail; i != kNone; i = tail_[i].prev)
    if (tail_[i].at <= limit) return tail_[i].path;
  return cell.base;
}

LongLivedResult LongLivedZombieDetector::Fold::result(Duration threshold) const {
  internal::DetectorMetrics& metrics = detector_metrics();
  obs::Journal& journal = obs::Journal::global();
  LongLivedResult result;
  result.total_announcements = static_cast<int>(studied_.size());
  for (std::uint32_t index = 0; index < studied_.size(); ++index) {
    if (cell_ids_[index].empty()) continue;  // no record of this event's prefix in its window
    const beacon::BeaconEvent* event = studied_[index];
    const TimePoint limit = event->withdraw_time + threshold;
    ZombieOutbreak outbreak;
    outbreak.prefix = event->prefix;
    outbreak.interval_start = event->announce_time;
    outbreak.withdraw_time = event->withdraw_time;
    std::uint64_t candidates = 0;
    for (const std::uint32_t peer : peer_order_) {
      const std::uint32_t id = cell_id(index, peer);
      if (id == kNone) continue;
      const Cell& cell = cells_[id];
      if (cell.first_at > limit) continue;  // no update inside this window
      ++candidates;
      const bgp::AsPath* path = path_at(cell, limit);
      if (path == nullptr) continue;
      ZombieRoute route;
      route.peer = peers_[peer];
      route.prefix = event->prefix;
      route.interval_start = event->announce_time;
      route.withdraw_time = event->withdraw_time;
      route.path = *path;
      if (journal.enabled(obs::kCatDetector)) {
        obs::JournalEvent ev;
        ev.time = limit;
        ev.has_prefix = true;
        ev.prefix = event->prefix;
        ev.has_peer = true;
        ev.peer_asn = route.peer.asn;
        ev.peer_address = route.peer.address;
        ev.a = threshold;
        ev.b = event->withdraw_time;
        ev.c = event->announce_time;
        ev.type = obs::JournalEventType::kThresholdCrossed;
        journal.emit<obs::kCatDetector>(ev);
        ev.type = obs::JournalEventType::kZombieDeclared;
        journal.emit<obs::kCatDetector>(ev);
      }
      outbreak.routes.push_back(std::move(route));
    }
    metrics.candidates.inc(candidates);
    if (!outbreak.routes.empty()) result.outbreaks.push_back(std::move(outbreak));
  }
  metrics.outbreaks.inc(result.outbreaks.size());
  metrics.routes.inc(static_cast<std::uint64_t>(result.route_count()));
  return result;
}

LongLivedResult LongLivedZombieDetector::detect(std::span<const mrt::MrtRecord> records,
                                                std::span<const beacon::BeaconEvent> events,
                                                Duration threshold) const {
  obs::ScopedSpan span("zombie.detect.longlived");
  PassTimer timer;
  return Fold(config_, records, events, threshold, threshold).result(threshold);
}

std::vector<SweepPoint> LongLivedZombieDetector::sweep(
    std::span<const mrt::MrtRecord> records, std::span<const beacon::BeaconEvent> events,
    std::span<const Duration> thresholds) const {
  std::vector<SweepPoint> out;
  if (thresholds.empty()) return out;
  obs::ScopedSpan span("zombie.sweep.longlived");
  PassTimer timer;
  const auto [lowest, highest] = std::minmax_element(thresholds.begin(), thresholds.end());
  const Fold fold(config_, records, events, *lowest, *highest);
  for (const Duration threshold : thresholds) {
    const LongLivedResult result = fold.result(threshold);
    SweepPoint point;
    point.threshold = threshold;
    point.outbreaks = static_cast<int>(result.outbreaks.size());
    point.routes = result.route_count();
    point.announcement_fraction = result.outbreak_fraction();
    out.push_back(point);
  }
  return out;
}

std::vector<OutbreakLifespan> LifespanAnalyzer::analyze(
    std::span<const mrt::MrtRecord> rib_dumps, std::span<const beacon::BeaconEvent> events,
    Duration dump_interval) const {
  obs::ScopedSpan span("zombie.analyze.lifespans");
  PassTimer timer;
  internal::DetectorMetrics& metrics = detector_metrics();
  metrics.records_scanned.inc(rib_dumps.size());
  // Final withdrawal time per studied prefix.
  std::map<Prefix, TimePoint> final_withdrawal;
  for (const auto& event : events) {
    if (config_.skip_superseded && event.superseded) continue;
    auto [it, inserted] = final_withdrawal.try_emplace(event.prefix, event.withdraw_time);
    if (!inserted) it->second = std::max(it->second, event.withdraw_time);
  }

  // Sightings per (prefix, peer): sorted dump timestamps + path.
  struct Sighting {
    TimePoint at;
    bgp::AsPath path;
  };
  std::map<Prefix, std::map<PeerKey, std::vector<Sighting>>> sightings;

  mrt::PeerIndexTable current_index;
  for (const auto& record : rib_dumps) {
    if (const auto* index = std::get_if<mrt::PeerIndexTable>(&record)) {
      current_index = *index;
      continue;
    }
    const auto* rib = std::get_if<mrt::RibEntryRecord>(&record);
    if (rib == nullptr) continue;
    auto fw = final_withdrawal.find(rib->prefix);
    if (fw == final_withdrawal.end()) continue;
    if (rib->timestamp <= fw->second) continue;  // before the final withdrawal
    for (const auto& entry : rib->entries) {
      if (entry.peer_index >= current_index.peers.size()) continue;
      const auto& dir = current_index.peers[entry.peer_index];
      const PeerKey peer{dir.asn, dir.address};
      if (peer_excluded(peer)) continue;
      sightings[rib->prefix][peer].push_back({rib->timestamp, entry.attributes.as_path});
    }
  }

  std::vector<OutbreakLifespan> out;
  for (auto& [prefix, peers] : sightings) {
    OutbreakLifespan lifespan;
    lifespan.prefix = prefix;
    lifespan.withdraw_time = final_withdrawal.at(prefix);

    // Per-peer presence intervals: consecutive dumps (gap <= dump
    // interval) merge into one interval.
    for (auto& [peer, list] : peers) {
      std::sort(list.begin(), list.end(),
                [](const Sighting& a, const Sighting& b) { return a.at < b.at; });
      PresenceInterval interval;
      interval.peer = peer;
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (i == 0 || list[i].at - list[i - 1].at > dump_interval) {
          if (i != 0) lifespan.intervals.push_back(interval);
          interval.first_seen = list[i].at;
        }
        interval.last_seen = list[i].at;
        interval.path = list[i].path;
      }
      lifespan.intervals.push_back(interval);
      lifespan.last_seen = std::max(lifespan.last_seen, interval.last_seen);
    }

    // Resurrections at the prefix level: the union of presence across
    // peers goes dark for more than one dump period, then a peer sees
    // the route again (with no beacon announcement possible — all
    // sightings are past the final withdrawal).
    // Coverage starts at the withdrawal: a first appearance more than
    // one dump period later is already a resurrection (the Fig. 4
    // prefix was withdrawn on 06-21 and first re-appeared on 06-29).
    TimePoint covered_until = lifespan.withdraw_time;
    std::vector<const PresenceInterval*> sorted;
    for (const auto& interval : lifespan.intervals) sorted.push_back(&interval);
    std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
      return a->first_seen < b->first_seen;
    });
    obs::Journal& journal = obs::Journal::global();
    for (const auto* interval : sorted) {
      if (interval->first_seen > covered_until + dump_interval) {
        OutbreakLifespan::Resurrection res;
        res.vanished_at = covered_until;
        res.reappeared_at = interval->first_seen;
        res.peer = interval->peer;
        if (journal.enabled(obs::kCatLifespan)) {
          obs::JournalEvent ev;
          ev.type = obs::JournalEventType::kResurrectionDetected;
          ev.time = res.reappeared_at;
          ev.has_prefix = true;
          ev.prefix = prefix;
          ev.has_peer = true;
          ev.peer_asn = res.peer.asn;
          ev.peer_address = res.peer.address;
          ev.a = res.vanished_at;
          ev.b = res.reappeared_at;
          journal.emit<obs::kCatLifespan>(ev);
        }
        lifespan.resurrections.push_back(res);
      }
      covered_until = std::max(covered_until, interval->last_seen);
    }
    if (journal.enabled(obs::kCatLifespan)) {
      obs::JournalEvent ev;
      ev.type = obs::JournalEventType::kLifespanClosed;
      ev.time = lifespan.last_seen;
      ev.has_prefix = true;
      ev.prefix = prefix;
      ev.a = lifespan.withdraw_time;
      ev.b = lifespan.last_seen;
      journal.emit<obs::kCatLifespan>(ev);
    }

    out.push_back(std::move(lifespan));
  }
  metrics.lifespans.inc(out.size());
  return out;
}

}  // namespace zombiescope::zombie
