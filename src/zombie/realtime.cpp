#include "zombie/realtime.hpp"

#include "obs/journal.hpp"

namespace zombiescope::zombie {

namespace {

void journal_transition(obs::JournalEventType type, const netbase::Prefix& prefix,
                        const PeerKey& peer, netbase::TimePoint at,
                        netbase::Duration threshold, netbase::TimePoint withdrawn_at) {
  obs::Journal& journal = obs::Journal::global();
  if (!journal.enabled(obs::kCatDetector)) return;
  obs::JournalEvent ev;
  ev.type = type;
  ev.time = at;
  ev.has_prefix = true;
  ev.prefix = prefix;
  ev.has_peer = true;
  ev.peer_asn = peer.asn;
  ev.peer_address = peer.address;
  ev.a = threshold;
  ev.b = withdrawn_at;
  journal.emit<obs::kCatDetector>(ev);
}

}  // namespace

void RealTimeZombieDetector::expect(const beacon::BeaconEvent& event) {
  if (event.superseded) return;
  pending_.emplace(event.announce_time, event);
  open_due();
}

void RealTimeZombieDetector::open_due() {
  while (!pending_.empty() && pending_.begin()->first <= stream_time_) {
    const auto next = pending_.extract(pending_.begin());
    // Deadlines before the announce_time fire first, but not one
    // stamped exactly there: it belongs after the records stamped
    // there, which batch counts as in time. open() fires the one such
    // deadline that cannot wait, the recycled prefix's own.
    fire_until(next.key() - 1);
    open(next.mapped());
  }
}

void RealTimeZombieDetector::open(const beacon::BeaconEvent& event) {
  // A recycled prefix supersedes the previous watch. Any zombie the old
  // watch had raised is resolved at the recycle instant: the fresh
  // announcement replaces the stuck route, so the route is no longer
  // stale even though no withdrawal ever cleared it. An old deadline
  // that falls exactly on the recycle instant fires first: no later
  // record can belong to the old window. A later deadline never fires:
  // the old window closes here.
  auto it = watches_.find(event.prefix);
  if (it != watches_.end()) {
    Watch& old = it->second;
    if (deadline(old) == event.announce_time) fire_deadline(old);
    if (!old.deadline_fired && window_close_fn_) window_close_fn_(old.peers);
    for (auto& [peer, state] : old.peers) resolve(old, peer, state, event.announce_time);
  }
  Watch watch;
  watch.event = event;
  due_.emplace(deadline(watch), event.prefix);
  watches_[event.prefix] = std::move(watch);
}

void RealTimeZombieDetector::resolve(const Watch& watch, const PeerKey& peer,
                                     WindowPeer& state, netbase::TimePoint at) {
  if (state.alerted) {
    alerted_.erase({watch.event.prefix, peer});
    ++active_version_;
    if (resolution_fn_) {
      ZombieResolution resolution;
      resolution.prefix = watch.event.prefix;
      resolution.peer = peer;
      resolution.withdrawn_at = watch.event.withdraw_time;
      resolution.resolved_at = at;
      resolution_fn_(resolution);
    }
    ++resolutions_;
    journal_transition(obs::JournalEventType::kZombieCleared, watch.event.prefix,
                       peer, at, config_.threshold, watch.event.withdraw_time);
  }
  state.announced = false;
  state.alerted = false;
}

void RealTimeZombieDetector::raise(const Watch& watch, const PeerKey& peer,
                                   WindowPeer& state, netbase::TimePoint at) {
  state.alerted = true;
  ++alerts_raised_;
  journal_transition(obs::JournalEventType::kZombieDeclared, watch.event.prefix, peer,
                     at, config_.threshold, watch.event.withdraw_time);
  ZombieAlert& alert = alerted_[{watch.event.prefix, peer}];
  alert.prefix = watch.event.prefix;
  alert.peer = peer;
  alert.withdrawn_at = watch.event.withdraw_time;
  alert.raised_at = at;
  alert.resurrected = at > deadline(watch);
  alert.stuck_path = state.path;
  ++active_version_;
  if (alert_fn_) alert_fn_(alert);
}

void RealTimeZombieDetector::fire_deadline(Watch& watch) {
  if (watch.deadline_fired) return;
  watch.deadline_fired = true;
  for (auto& [peer, state] : watch.peers) {
    if (state.announced && !state.alerted) raise(watch, peer, state, deadline(watch));
  }
  if (window_close_fn_) window_close_fn_(watch.peers);
}

void RealTimeZombieDetector::advance(netbase::TimePoint now) {
  stream_time_ = std::max(stream_time_, now);
  open_due();
  fire_until(now);
}

void RealTimeZombieDetector::fire_until(netbase::TimePoint t) {
  fired_until_ = std::max(fired_until_, t);
  while (!due_.empty() && due_.top().first <= fired_until_) {
    const Due due = due_.top();
    due_.pop();
    // Lazy deletion: the entry of a superseded watch finds its prefix
    // watched under another deadline (or already fired) and is dropped.
    auto it = watches_.find(due.second);
    if (it != watches_.end() && deadline(it->second) == due.first)
      fire_deadline(it->second);
  }
}

void RealTimeZombieDetector::ingest(const mrt::MrtRecord& record) {
  const netbase::TimePoint stamp = mrt::record_timestamp(record);
  stream_time_ = std::max(stream_time_, stamp);
  open_due();
  // Only deadlines strictly before the record fire here: an update
  // stamped exactly at withdraw + threshold is still in time.
  fire_until(stamp - 1);

  if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record)) {
    const PeerKey peer{msg->peer_asn, msg->peer_address};
    const netbase::TimePoint t = msg->timestamp;
    for (const auto& prefix : msg->update.withdrawn) {
      auto it = watches_.find(prefix);
      if (it == watches_.end() || t < it->second.event.announce_time) continue;
      Watch& watch = it->second;
      WindowPeer& state = watch.peers[peer];
      if (t >= watch.event.withdraw_time) state.wd_seen = true;
      resolve(watch, peer, state, t);
    }
    for (const auto& prefix : msg->update.announced) {
      auto it = watches_.find(prefix);
      if (it == watches_.end() || t < it->second.event.announce_time) continue;
      Watch& watch = it->second;
      WindowPeer& state = watch.peers[peer];
      state.announced = true;
      state.ann_seen = true;
      const bgp::AsPath& path = msg->update.attributes.as_path;
      if (state.alerted) {
        // Still stuck, possibly on a new path: keep the active entry's
        // stuck_path current.
        if (state.path != path) {
          state.path = path;
          alerted_[{prefix, peer}].stuck_path = path;
          ++active_version_;
        }
        continue;
      }
      state.path = path;
      // A (re)announcement after the deadline: the route is stuck or
      // resurrected — alert immediately.
      if (watch.deadline_fired) raise(watch, peer, state, t);
    }
    return;
  }
  if (const auto* state_msg = std::get_if<mrt::Bgp4mpStateChange>(&record)) {
    if (state_msg->old_state == bgp::SessionState::kEstablished &&
        state_msg->new_state != bgp::SessionState::kEstablished) {
      const PeerKey peer{state_msg->peer_asn, state_msg->peer_address};
      for (auto& [prefix, watch] : watches_) {
        (void)prefix;
        auto it = watch.peers.find(peer);
        if (it != watch.peers.end()) resolve(watch, peer, it->second, state_msg->timestamp);
      }
    }
  }
}

std::vector<ZombieAlert> RealTimeZombieDetector::active_zombies() const {
  std::vector<ZombieAlert> out;
  out.reserve(alerted_.size());
  for (const auto& [key, alert] : alerted_) {
    (void)key;
    out.push_back(alert);
  }
  return out;
}

}  // namespace zombiescope::zombie
