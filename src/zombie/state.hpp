// zombie/state.hpp — reconstructing per-peer prefix state from RIS
// raw data.
//
// This implements §3.1(1) of the paper: "with [BGP UPDATE and STATE
// messages], we are able to reconstruct the state of a prefix
// (present or removed) at any RIPE RIS peer at a specific time
// point" — at message-level granularity, from archived MRT only.

#pragma once

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "mrt/record.hpp"
#include "zombie/types.hpp"

namespace zombiescope::zombie {

/// The reconstructed status of one prefix at one peer.
struct RouteStatus {
  bool present = false;
  bgp::PathAttributes attributes;        // meaningful when present
  netbase::TimePoint last_change = 0;    // time of the deciding message
};

/// Chronological state tracker. Feed records in timestamp order; query
/// any ⟨peer, prefix⟩ at the current replay position.
class StateTracker {
 public:
  /// Processes one MRT record. BGP4MP updates toggle prefix states; a
  /// STATE message leaving Established clears everything the peer
  /// announced (session flush). TABLE_DUMP_V2 records are accepted
  /// too: RIB entries assert presence at dump time.
  void apply(const mrt::MrtRecord& record);

  /// nullptr if the peer never announced the prefix (or flushed).
  const RouteStatus* status(const PeerKey& peer, const netbase::Prefix& prefix) const;

  bool is_present(const PeerKey& peer, const netbase::Prefix& prefix) const {
    const RouteStatus* s = status(peer, prefix);
    return s != nullptr && s->present;
  }

  /// All peers currently holding `prefix`.
  std::vector<PeerKey> holders(const netbase::Prefix& prefix) const;

  /// All peer sessions seen so far (present or not).
  std::vector<PeerKey> peers() const;

 private:
  std::map<PeerKey, std::map<netbase::Prefix, RouteStatus>> state_;
  mrt::PeerIndexTable last_index_;
};

/// Merges several archives (e.g. per-collector) into one stream
/// sorted by timestamp (stable for equal stamps).
std::vector<mrt::MrtRecord> merge_archives(
    std::span<const std::vector<mrt::MrtRecord>* const> archives);

}  // namespace zombiescope::zombie
