#include "zombie/longlived.hpp"

#include <algorithm>
#include <map>

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
    if (event.superseded) continue;
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
      if (config_.excluded_peers.contains(peer)) continue;
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
