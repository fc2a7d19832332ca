#include "live/peerq.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/journal.hpp"

namespace zombiescope::live {

WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z) {
  if (trials == 0) return {};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = p + z2 / (2.0 * n);
  const double margin = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  WilsonInterval out;
  out.low = std::max(0.0, (center - margin) / denom);
  out.high = std::min(1.0, (center + margin) / denom);
  return out;
}

PeerCell& PeerQAccumulator::cell(const zombie::PeerKey& peer) {
  if (last_cell_ != nullptr && last_peer_ == peer) return *last_cell_;
  auto [it, inserted] = cells_.try_emplace(peer);
  if (inserted) publish_due_ = true;
  last_peer_ = peer;
  last_cell_ = &it->second;
  return it->second;
}

void PeerQAccumulator::on_record(const mrt::MrtRecord& record) {
  if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record)) {
    // Any BGP4MP message creates the peer, even a prefix-less one —
    // StateTracker::apply does the same, and the classifier's median
    // runs over that exact universe.
    PeerCell& c = cell({msg->peer_asn, msg->peer_address});
    ++c.updates;
    c.announcements += msg->update.announced.size();
    c.withdrawals += msg->update.withdrawn.size();
    c.last_seen = std::max(c.last_seen, msg->timestamp);
  } else if (const auto* change = std::get_if<mrt::Bgp4mpStateChange>(&record)) {
    // Never creates a peer (StateTracker's rule); resets count only
    // for peers already in the universe.
    auto it = cells_.find({change->peer_asn, change->peer_address});
    if (it == cells_.end()) return;
    if (change->old_state == bgp::SessionState::kEstablished &&
        change->new_state != bgp::SessionState::kEstablished) {
      ++it->second.session_resets;
      publish_due_ = true;
    }
  } else if (const auto* index = std::get_if<mrt::PeerIndexTable>(&record)) {
    last_index_ = *index;
  } else if (const auto* rib = std::get_if<mrt::RibEntryRecord>(&record)) {
    if (last_index_.peers.empty()) return;
    for (const auto& entry : rib->entries) {
      if (entry.peer_index >= last_index_.peers.size()) continue;
      const auto& peer = last_index_.peers[entry.peer_index];
      cell({peer.asn, peer.address});
    }
  }
}

void PeerQAccumulator::on_stuck(const zombie::ZombieAlert& alert) {
  ++cell(alert.peer).stuck;
  publish_due_ = true;
}

void PeerQAccumulator::on_window_close(const zombie::WindowPeers& window) {
  ++cycles_closed_;
  // Both maps are in PeerKey order: one merge walk. A window peer has
  // a cell already, made by the update that put it in the window.
  auto w = window.begin();
  for (auto& [peer, c] : cells_) {
    while (w != window.end() && w->first < peer) ++w;
    const bool in = w != window.end() && w->first == peer;
    if (in && w->second.ann_seen) {
      ++c.ann_seen;
      c.miss_streak = 0;
    } else {
      ++c.miss_streak;
    }
    if (in && w->second.wd_seen) ++c.wd_seen;
  }
  publish_due_ = true;
}

std::shared_ptr<const PeerQShardSnapshot> PeerQAccumulator::snapshot(
    netbase::TimePoint clock, std::uint64_t epoch) {
  auto snap = std::make_shared<PeerQShardSnapshot>();
  snap->epoch = epoch;
  snap->clock = clock;
  snap->cycles_closed = cycles_closed_;
  snap->peers = cells_;
  publish_due_ = false;
  return snap;
}

const PeerRow* PeerTable::find(const zombie::PeerKey& peer) const {
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), peer,
      [](const PeerRow& row, const zombie::PeerKey& key) { return row.peer < key; });
  return it != rows.end() && it->peer == peer ? &*it : nullptr;
}

std::set<zombie::PeerKey> PeerTable::noisy_set() const {
  std::set<zombie::PeerKey> out;
  for (const auto& row : rows)
    if (row.noisy) out.insert(row.peer);
  return out;
}

namespace {

std::int64_t ppm(double p) { return std::llround(p * 1e6); }

obs::JournalEvent peer_event(obs::JournalEventType type, netbase::TimePoint time,
                             const zombie::PeerKey& peer) {
  obs::JournalEvent event;
  event.type = type;
  event.time = time;
  event.has_peer = true;
  event.peer_asn = peer.asn;
  event.peer_address = peer.address;
  return event;
}

}  // namespace

std::shared_ptr<const PeerTable> PeerTableBuilder::build(
    const std::vector<std::shared_ptr<const PeerQShardSnapshot>>& shards,
    netbase::TimePoint clock, bool new_data, bool converge) {
  auto table = std::make_shared<PeerTable>();
  table->clock = clock;

  std::map<zombie::PeerKey, PeerRow> merged;
  for (const auto& snap : shards) {
    if (!snap) continue;
    table->fingerprint += snap->epoch;
    table->total_cycles += snap->cycles_closed;
    for (const auto& [peer, c] : snap->peers) {
      PeerRow& row = merged[peer];
      row.peer = peer;
      // Prefix-routed counters are disjoint across shards and sum;
      // broadcast-derived ones (session resets) were seen by every
      // shard holding the peer and take the max.
      row.updates += c.updates;
      row.announcements += c.announcements;
      row.withdrawals += c.withdrawals;
      row.stuck += c.stuck;
      row.ann_seen += c.ann_seen;
      row.wd_seen += c.wd_seen;
      row.last_seen = std::max(row.last_seen, c.last_seen);
      row.session_resets = std::max(row.session_resets, c.session_resets);
      row.miss_streak = std::max(row.miss_streak, c.miss_streak);
    }
  }

  // The raw classification is NoisyPeerFilter's own median and
  // verdict: probability = stuck / total cycles (same denominator for
  // every peer), median over the whole universe.
  std::vector<double> probabilities;
  probabilities.reserve(merged.size());
  for (auto& [peer, row] : merged) {
    (void)peer;
    row.probability = table->total_cycles == 0
                          ? 0.0
                          : static_cast<double>(row.stuck) /
                                static_cast<double>(table->total_cycles);
    row.wilson = wilson_interval(row.stuck, table->total_cycles);
    probabilities.push_back(row.probability);
  }
  table->median_probability = zombie::NoisyPeerFilter::median(std::move(probabilities));

  auto& journal = obs::Journal::global();
  table->rows.reserve(merged.size());
  for (auto& [peer, row] : merged) {
    row.noisy_raw = rule_.is_noisy(row.probability, table->median_probability);

    Published& st = state_[peer];
    bool desired;
    if (converge) {
      // finalize(): the memoryless batch rule, no live stabilizers —
      // this is the point where the live set equals NoisyPeerFilter's.
      desired = row.noisy_raw;
    } else if (st.noisy) {
      desired = row.noisy_raw;  // exit only when the raw verdict clears
    } else {
      // Entry needs statistical weight behind it: enough closed cycles
      // service-wide and a Wilson lower bound already past the floor.
      desired = row.noisy_raw && table->total_cycles >= kNoisyMinCycles &&
                row.wilson.low > rule_.config().probability_floor;
    }
    if (desired != st.noisy) {
      if (converge) {
        st.streak = config_.dwell;
      } else if (new_data) {
        ++st.streak;
      }
      if (st.streak >= config_.dwell) {
        st.noisy = desired;
        st.streak = 0;
        if (journal.enabled(obs::kCatPeer)) {
          auto event = peer_event(desired ? obs::JournalEventType::kPeerNoisyEnter
                                          : obs::JournalEventType::kPeerNoisyExit,
                                  clock, peer);
          event.a = ppm(row.probability);
          event.b = ppm(table->median_probability);
          event.c = static_cast<std::int64_t>(row.stuck);
          journal.emit<obs::kCatPeer>(event);
        }
      }
    } else {
      st.streak = 0;
    }
    row.noisy = st.noisy;

    row.silent = row.updates > 0 && clock > row.last_seen &&
                 clock - row.last_seen > kSilentAfter;
    if (row.silent && !st.silent_logged) {
      st.silent_logged = true;
      if (journal.enabled(obs::kCatPeer)) {
        auto event =
            peer_event(obs::JournalEventType::kPeerSilent, clock, peer);
        event.a = clock - row.last_seen;
        event.b = row.last_seen;
        journal.emit<obs::kCatPeer>(event);
      }
    } else if (!row.silent) {
      st.silent_logged = false;
    }

    if (row.noisy) ++table->noisy_count;
    if (row.silent) ++table->silent_count;
    if (row.updates > 0 && !row.silent) ++table->feeding_count;
    table->rows.push_back(row);
  }
  return table;
}

namespace {

void append_kv(std::string& out, std::string_view key, const std::string& value,
               bool quote) {
  if (out.back() != '{' && out.back() != '[') out += ',';
  out += '"';
  out += key;
  out += "\":";
  if (quote) out += '"';
  out += value;
  if (quote) out += '"';
}

std::string format_probability(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", p);
  return buf;
}

void append_row(std::string& out, const PeerRow& row, netbase::TimePoint clock) {
  out += out.back() == '[' ? "{" : ",{";
  append_kv(out, "asn", std::to_string(row.peer.asn), false);
  append_kv(out, "address", row.peer.address.to_string(), true);
  append_kv(out, "updates", std::to_string(row.updates), false);
  append_kv(out, "announcements", std::to_string(row.announcements), false);
  append_kv(out, "withdrawals", std::to_string(row.withdrawals), false);
  append_kv(out, "last_seen", std::to_string(row.last_seen), false);
  const netbase::Duration age = row.last_seen == 0 ? -1 : clock - row.last_seen;
  append_kv(out, "age_seconds", std::to_string(age), false);
  append_kv(out, "session_resets", std::to_string(row.session_resets), false);
  append_kv(out, "stuck", std::to_string(row.stuck), false);
  append_kv(out, "probability", format_probability(row.probability), false);
  append_kv(out, "wilson_low", format_probability(row.wilson.low), false);
  append_kv(out, "wilson_high", format_probability(row.wilson.high), false);
  append_kv(out, "ann_seen", std::to_string(row.ann_seen), false);
  append_kv(out, "wd_seen", std::to_string(row.wd_seen), false);
  append_kv(out, "miss_streak", std::to_string(row.miss_streak), false);
  append_kv(out, "noisy", row.noisy ? "true" : "false", false);
  append_kv(out, "noisy_raw", row.noisy_raw ? "true" : "false", false);
  append_kv(out, "silent", row.silent ? "true" : "false", false);
  out += '}';
}

}  // namespace

std::string peer_table_json(const PeerTable& table, std::uint64_t epoch,
                            bool noisy_only) {
  std::string out = "{";
  append_kv(out, "epoch", std::to_string(epoch), false);
  append_kv(out, "clock", std::to_string(table.clock), false);
  append_kv(out, "total_cycles", std::to_string(table.total_cycles), false);
  append_kv(out, "median_probability", format_probability(table.median_probability),
            false);
  append_kv(out, "noisy_count", std::to_string(table.noisy_count), false);
  append_kv(out, "silent_count", std::to_string(table.silent_count), false);
  append_kv(out, "feeding_count", std::to_string(table.feeding_count), false);
  out += ",\"peers\":[";
  if (noisy_only) {
    // Same presentation as NoisyPeerFilter::noisy_peers: worst first.
    std::vector<const PeerRow*> noisy;
    for (const auto& row : table.rows)
      if (row.noisy) noisy.push_back(&row);
    std::sort(noisy.begin(), noisy.end(), [](const PeerRow* a, const PeerRow* b) {
      return a->probability > b->probability;
    });
    for (const PeerRow* row : noisy) append_row(out, *row, table.clock);
  } else {
    for (const auto& row : table.rows) append_row(out, row, table.clock);
  }
  out += "]}";
  return out;
}

}  // namespace zombiescope::live
