// wire/bridge.hpp — the simnet/archive ↔ socket bridge.
//
// Replays an MRT record stream over real BGP-4 sessions so the live
// pipeline behind a BgpSpeaker sees byte-for-byte wire traffic yet
// produces the EXACT same records a batch run reads from the archive.
// Three things must survive the socket hop that plain BGP cannot
// carry, and all three travel as experimental path attributes the
// receiving feed pops before submission (the same sideband trick BMP
// uses for per-peer headers):
//
//   * attr 254 kAttrBridgeStamp  — the archive timestamp (u64) plus a
//     global sequence number (u64). The feed re-orders on the sequence
//     so submission order equals archive order no matter how the
//     kernel interleaves bytes across sessions, and restores the
//     archive timestamp that a live socket would otherwise replace
//     with "now".
//   * attr 253 kAttrBridgeState  — u16 old_state + u16 new_state on an
//     otherwise-empty UPDATE: a Bgp4mpStateChange in transit (BGP has
//     no message for "some other router's session flapped").
//   * OPEN capability 240        — the *logical* peer address (see
//     wire/message.hpp), because every bridge session arrives from
//     127.0.0.1 but PeerKey identity is {asn, peer_address}.
//
// The bridge client opens one session per distinct (peer_asn,
// peer_address) in the input, performs a blocking handshake, then
// streams the records in order: each is encoded once, with its stamp
// as an extra attribute, straight into its session's queue, and the
// queues go out in bursts of one write per session.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/update.hpp"
#include "mrt/record.hpp"
#include "netbase/time.hpp"

namespace zombiescope::wire {

/// Experimental (RFC 2042 reserved-for-development range) attribute
/// type codes used only on bridge sessions.
inline constexpr std::uint8_t kAttrBridgeStamp = 254;
inline constexpr std::uint8_t kAttrBridgeState = 253;

struct BridgeStamp {
  netbase::TimePoint timestamp = 0;
  std::uint64_t sequence = 0;
};

/// Adds the stamp attribute to an UPDATE in place.
void stamp_update(bgp::UpdateMessage& update, const BridgeStamp& stamp);

/// Pops the stamp attribute if present; the update is left exactly as
/// the archive had it (required for record-equality with batch runs).
std::optional<BridgeStamp> extract_stamp(bgp::UpdateMessage& update);

/// Builds the empty UPDATE that carries a state change (plus stamp).
bgp::UpdateMessage make_state_update(std::uint16_t old_state,
                                     std::uint16_t new_state,
                                     const BridgeStamp& stamp);

/// Pops the state attribute if present: {old_state, new_state}.
std::optional<std::pair<std::uint16_t, std::uint16_t>> extract_state(
    bgp::UpdateMessage& update);

/// Splits an UPDATE whose encoding would exceed the 4096-byte message
/// ceiling into wire-legal parts (withdrawals first, then announcement
/// chunks sharing the attribute set). Returns {update} unchanged when
/// it already fits.
std::vector<bgp::UpdateMessage> split_update(bgp::UpdateMessage update);

struct BridgeOptions {
  /// Hold time the bridge offers. Generous: replay pacing is bursty.
  netbase::Duration hold_time = 180;
  /// Attach stamp attributes (exact-equivalence mode). Off = raw
  /// replay, timestamps regenerate at the receiver.
  bool stamp = true;
  /// Local ASN used when a record lacks a usable peer ASN.
  std::uint32_t fallback_asn = 64512;
};

struct BridgeStats {
  std::size_t sessions = 0;
  std::size_t updates_sent = 0;
  std::size_t state_changes_sent = 0;
  std::size_t messages_sent = 0;
  std::size_t splits = 0;
  std::uint64_t bytes_sent = 0;
};

/// Blocking handshake on an already-connected socket: send our OPEN
/// (with capability 240 = logical_address when provided), read the
/// collector's OPEN, exchange KEEPALIVEs. Throws std::runtime_error on
/// handshake failure. Shared by replay_over_wire and `zswire peer`.
void wire_handshake(int fd, std::uint32_t asn, std::uint32_t bgp_id,
                    netbase::Duration hold_time,
                    const std::optional<netbase::IpAddress>& logical_address);

/// Connects (blocking) to host:port. Throws on failure; returns the fd.
int wire_connect(const std::string& host, std::uint16_t port);

/// Replays the records against a collector speaker at host:port, one
/// session per distinct (peer_asn, peer_address). Blocking; returns
/// once every session has said Cease/Administrative Shutdown and the
/// collector has closed it.
BridgeStats replay_over_wire(std::span<const mrt::MrtRecord> records,
                             const std::string& host, std::uint16_t port,
                             const BridgeOptions& options = {});

}  // namespace zombiescope::wire
