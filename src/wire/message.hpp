// wire/message.hpp — BGP-4 wire message codecs (RFC 4271 §4).
//
// Everything below the UPDATE body: the 19-byte message header
// (16-byte all-ones marker, length, type), OPEN with its optional
// capability parameters (RFC 5492), NOTIFICATION with the full
// error-code/subcode vocabulary (RFC 4271 §6 + the Cease subcodes of
// RFC 4486 and the Send Hold code of RFC 9687), and KEEPALIVE. UPDATE
// bodies delegate to the existing bgp/update codec — this layer only
// frames and validates them.
//
// Capabilities carried in OPEN:
//   1   multiprotocol (RFC 4760)        — AFI/SAFI pairs
//   2   route refresh (RFC 2918)
//   64  graceful restart (RFC 4724)     — flags, restart time, tuples
//   65  4-octet AS numbers (RFC 6793)
//   71  long-lived graceful restart     — tuples with per-AFI stale time
//       (draft-uttaro-idr-bgp-persistence / RFC 9494 family)
//   240 zombiescope peer-address bridge — experimental range (RFC 8810);
//       carries the *logical* peer address so a loopback replay session
//       can present the identity of the monitor it is re-enacting.
//       PeerKey in the detector is (ASN, address); without this every
//       bridged session would collapse into 127.0.0.1.
//
// Decode errors throw WireError carrying the NOTIFICATION code/subcode
// the receiver must send back (RFC 4271 §6.1–6.3), so the session layer
// can translate a parse failure straight into the right NOTIFICATION.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/types.hpp"
#include "bgp/update.hpp"
#include "netbase/bytes.hpp"
#include "netbase/ip.hpp"
#include "netbase/time.hpp"

namespace zombiescope::wire {

inline constexpr std::size_t kHeaderSize = 19;
inline constexpr std::size_t kMaxMessageSize = 4096;
inline constexpr std::uint8_t kBgpVersion = 4;

/// NOTIFICATION error codes (RFC 4271 §4.5; 7 = RFC 7313, 8 = RFC 9687).
enum class NotifyCode : std::uint8_t {
  kMessageHeaderError = 1,
  kOpenMessageError = 2,
  kUpdateMessageError = 3,
  kHoldTimerExpired = 4,
  kFsmError = 5,
  kCease = 6,
  kRouteRefreshError = 7,
  kSendHoldTimerExpired = 8,
};

// Message Header Error subcodes (§6.1).
inline constexpr std::uint8_t kHdrConnectionNotSynchronized = 1;
inline constexpr std::uint8_t kHdrBadMessageLength = 2;
inline constexpr std::uint8_t kHdrBadMessageType = 3;
// OPEN Message Error subcodes (§6.2; 7 = RFC 5492).
inline constexpr std::uint8_t kOpenUnsupportedVersion = 1;
inline constexpr std::uint8_t kOpenBadPeerAs = 2;
inline constexpr std::uint8_t kOpenBadBgpIdentifier = 3;
inline constexpr std::uint8_t kOpenUnsupportedOptionalParameter = 4;
inline constexpr std::uint8_t kOpenUnacceptableHoldTime = 6;
inline constexpr std::uint8_t kOpenUnsupportedCapability = 7;
// UPDATE Message Error subcodes (§6.3).
inline constexpr std::uint8_t kUpdMalformedAttributeList = 1;
inline constexpr std::uint8_t kUpdInvalidNetworkField = 10;
inline constexpr std::uint8_t kUpdMalformedAsPath = 11;
// Cease subcodes (RFC 4486).
inline constexpr std::uint8_t kCeaseAdminShutdown = 2;
inline constexpr std::uint8_t kCeasePeerDeconfigured = 3;
inline constexpr std::uint8_t kCeaseAdminReset = 4;
inline constexpr std::uint8_t kCeaseConnectionRejected = 5;
inline constexpr std::uint8_t kCeaseConnectionCollision = 7;
inline constexpr std::uint8_t kCeaseOutOfResources = 8;

std::string to_string(NotifyCode code);
/// Human name for a (code, subcode) pair; "subcode N" for unknown ones.
std::string notify_subcode_name(NotifyCode code, std::uint8_t subcode);

/// A decode failure with the NOTIFICATION the receiver owes the peer.
class WireError : public netbase::DecodeError {
 public:
  WireError(NotifyCode code, std::uint8_t subcode, const std::string& what)
      : netbase::DecodeError(what), code_(code), subcode_(subcode) {}
  NotifyCode code() const { return code_; }
  std::uint8_t subcode() const { return subcode_; }

 private:
  NotifyCode code_;
  std::uint8_t subcode_;
};

/// Parsed 19-byte header. `length` is the total message length
/// including the header itself.
struct MessageHeader {
  std::uint16_t length = 0;
  bgp::MessageType type = bgp::MessageType::kKeepalive;
};

/// Validates marker + length bounds (per-type minima, 4096 maximum).
/// Throws WireError(kMessageHeaderError, ...) on violation.
MessageHeader decode_header(std::span<const std::uint8_t> wire);

/// Writes marker + placeholder length + type; returns the offset of
/// the length field for patch_u16 once the body is in.
std::size_t begin_message(netbase::ByteWriter& w, bgp::MessageType type);

/// Graceful-restart capability tuple (RFC 4724 §3).
struct GrTuple {
  std::uint16_t afi = 1;
  std::uint8_t safi = 1;
  bool forwarding_preserved = false;

  friend bool operator==(const GrTuple&, const GrTuple&) = default;
};

/// Long-lived graceful restart tuple: AFI/SAFI plus a 24-bit stale
/// time in seconds.
struct LlgrTuple {
  std::uint16_t afi = 1;
  std::uint8_t safi = 1;
  std::uint32_t stale_time = 0;

  friend bool operator==(const LlgrTuple&, const LlgrTuple&) = default;
};

/// Graceful-restart capability (code 64).
struct GracefulRestart {
  bool restarting = false;          // R flag: restart in progress
  std::uint16_t restart_time = 120; // 12 bits on the wire
  std::vector<GrTuple> tuples;

  friend bool operator==(const GracefulRestart&, const GracefulRestart&) = default;
};

/// LLGR capability (code 71).
struct LongLivedGracefulRestart {
  std::vector<LlgrTuple> tuples;

  friend bool operator==(const LongLivedGracefulRestart&,
                         const LongLivedGracefulRestart&) = default;
};

/// A capability we carry but do not interpret.
struct RawCapability {
  std::uint8_t code = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const RawCapability&, const RawCapability&) = default;
};

/// The OPEN message, with the capabilities this speaker understands
/// decoded into typed fields and the rest preserved raw.
struct OpenMessage {
  std::uint8_t version = kBgpVersion;
  bgp::Asn asn = 0;            // full 32-bit; the wire My-AS field
                               // carries AS_TRANS when it won't fit
  std::uint16_t hold_time = 90;
  std::uint32_t bgp_id = 0;

  bool cap_four_octet_asn = true;
  bool cap_route_refresh = false;
  std::vector<std::pair<std::uint16_t, std::uint8_t>> multiprotocol;  // AFI, SAFI
  std::optional<GracefulRestart> graceful_restart;
  std::optional<LongLivedGracefulRestart> llgr;
  /// Capability 240: the logical peer address a bridged session
  /// presents (1 family byte: 4 or 6, then 4 or 16 address bytes).
  std::optional<netbase::IpAddress> bridge_peer_address;
  std::vector<RawCapability> unknown_capabilities;

  std::vector<std::uint8_t> encode() const;
  /// Throws WireError(kOpenMessageError, ...) on malformed input.
  static OpenMessage decode(std::span<const std::uint8_t> wire);

  friend bool operator==(const OpenMessage&, const OpenMessage&) = default;
};

struct NotificationMessage {
  NotifyCode code = NotifyCode::kCease;
  std::uint8_t subcode = 0;
  std::vector<std::uint8_t> data;

  std::vector<std::uint8_t> encode() const;
  static NotificationMessage decode(std::span<const std::uint8_t> wire);
  /// "Cease/administrative shutdown" style display string.
  std::string to_string() const;

  friend bool operator==(const NotificationMessage&, const NotificationMessage&) = default;
};

/// The 19-byte KEEPALIVE.
std::vector<std::uint8_t> encode_keepalive();

/// Frames an UPDATE body through the existing bgp/update codec. The
/// encoded form already carries the full header; this checks the 4096
/// cap (throws WireError(kUpdateMessageError) when the routes cannot
/// fit one message — callers split before encoding).
std::vector<std::uint8_t> encode_update(const bgp::UpdateMessage& update);

/// encode_update() appending to `out`, with `extra` attributes after
/// the update's own (bgp::UpdateMessage::encode_into). Returns the
/// message's size; on a throw `out` is left as it was.
std::size_t encode_update_into(std::vector<std::uint8_t>& out,
                               const bgp::UpdateMessage& update,
                               std::span<const bgp::RawAttribute> extra = {});

/// Decodes an UPDATE wire image, translating bgp codec DecodeErrors
/// into WireError(kUpdateMessageError, kUpdMalformedAttributeList).
bgp::UpdateMessage decode_update(std::span<const std::uint8_t> wire);

/// Accumulates raw socket bytes and yields complete BGP messages.
/// Enforces marker/length/type validity as soon as a header is
/// complete — a stream with a bad header throws WireError immediately,
/// without waiting for the (bogus) length to fill.
class FrameReader {
 public:
  void append(std::span<const std::uint8_t> bytes);
  void append(const std::uint8_t* data, std::size_t size);

  /// Next complete message (header included), or nullopt if more bytes
  /// are needed. Throws WireError on a malformed header.
  std::optional<std::vector<std::uint8_t>> next();

  std::size_t buffered() const { return buffer_.size() - offset_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t offset_ = 0;  // bytes of buffer_ already returned by next()
};

}  // namespace zombiescope::wire
