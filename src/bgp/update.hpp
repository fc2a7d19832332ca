// bgp/update.hpp — the BGP UPDATE message and its wire codec.
//
// Encoding follows RFC 4271 with two standard extensions used by every
// modern collector feed: 4-byte AS numbers in AS_PATH/AGGREGATOR
// (RFC 6793, as implied by MRT BGP4MP_MESSAGE_AS4 records) and
// multiprotocol reachability for IPv6 NLRI (RFC 4760, MP_REACH_NLRI /
// MP_UNREACH_NLRI).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bgp/attributes.hpp"
#include "netbase/bytes.hpp"
#include "netbase/ip.hpp"

namespace zombiescope::bgp {

/// BGP message types (RFC 4271 §4.1).
enum class MessageType : std::uint8_t {
  kOpen = 1,
  kUpdate = 2,
  kNotification = 3,
  kKeepalive = 4,
};

/// A BGP UPDATE. IPv4 reachability uses the classic top-level NLRI /
/// withdrawn fields; IPv6 reachability travels in MP_REACH/MP_UNREACH
/// attributes. The codec picks the right container from each prefix's
/// address family automatically.
struct UpdateMessage {
  std::vector<netbase::Prefix> withdrawn;   // any family
  std::vector<netbase::Prefix> announced;   // any family
  PathAttributes attributes;                // meaningful iff !announced.empty()

  bool is_withdrawal_only() const { return announced.empty() && !withdrawn.empty(); }
  bool is_announcement() const { return !announced.empty(); }

  /// Serializes to a full BGP message (16-byte marker, length, type).
  /// Throws netbase::DecodeError as encode_into() does.
  std::vector<std::uint8_t> encode() const;

  /// Appends the full BGP message to `out`, in one pass: the header,
  /// withdrawn routes, attributes and NLRI are written in place and the
  /// three length fields back-patched. The `extra` attributes follow
  /// attributes.unknown, where wire::stamp_update would put them.
  /// Throws netbase::DecodeError, leaving `out` as it was, when the
  /// message would exceed the 65,535 bytes its length field can state
  /// or an announcement's AGGREGATOR address is not IPv4.
  void encode_into(std::vector<std::uint8_t>& out,
                   std::span<const RawAttribute> extra = {}) const;

  /// Parses a full BGP message. Throws netbase::DecodeError on
  /// malformed input. Non-UPDATE messages are rejected. With `paths`,
  /// the AS_PATH is shared with earlier messages that carried the same
  /// bytes; without, it gets a block of its own.
  static UpdateMessage decode(std::span<const std::uint8_t> wire,
                              AsPathInterner* paths = nullptr);

  /// Human-readable one-line summary for debugging / example output.
  std::string summary() const;

  friend bool operator==(const UpdateMessage&, const UpdateMessage&) = default;
};

/// Decodes NLRI until the reader is exhausted, appending to `out`.
void decode_nlri(netbase::ByteReader& r, netbase::AddressFamily family,
                 std::vector<netbase::Prefix>& out);

/// Attribute-level codec shared with the MRT TABLE_DUMP_V2 encoder,
/// which serializes per-route attribute blobs outside full UPDATEs
/// (the AS_PATH payload codec is in bgp/aspath.hpp).
namespace wire {

/// Writes one path attribute (flags/type/length/payload), setting the
/// extended-length flag automatically.
void write_attribute(netbase::ByteWriter& w, std::uint8_t flags, AttrType type,
                     std::span<const std::uint8_t> payload);

}  // namespace wire

}  // namespace zombiescope::bgp
