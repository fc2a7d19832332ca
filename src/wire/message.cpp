#include "wire/message.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace zombiescope::wire {

namespace {

// RFC 4271 §4.1: the marker is all ones.
constexpr std::uint8_t kMarkerByte = 0xff;

// Capability codes this speaker understands (RFC 5492 registry).
constexpr std::uint8_t kCapMultiprotocol = 1;
constexpr std::uint8_t kCapRouteRefresh = 2;
constexpr std::uint8_t kCapGracefulRestart = 64;
constexpr std::uint8_t kCapFourOctetAsn = 65;
constexpr std::uint8_t kCapLlgr = 71;
constexpr std::uint8_t kCapBridgePeerAddress = 240;  // RFC 8810 experimental range

// RFC 6793: the 2-octet My-AS placeholder when the real ASN needs 4.
constexpr std::uint16_t kAsTrans = 23456;

constexpr std::uint8_t kOptParamCapabilities = 2;

std::size_t min_length_for(bgp::MessageType type) {
  switch (type) {
    case bgp::MessageType::kOpen:
      return kHeaderSize + 10;  // version, my-as, hold, bgp-id, optlen
    case bgp::MessageType::kUpdate:
      return kHeaderSize + 4;  // withdrawn len + attr len
    case bgp::MessageType::kNotification:
      return kHeaderSize + 2;  // code + subcode
    case bgp::MessageType::kKeepalive:
      return kHeaderSize;
  }
  return kHeaderSize;
}

[[noreturn]] void throw_header(std::uint8_t subcode, const std::string& what) {
  throw WireError(NotifyCode::kMessageHeaderError, subcode, what);
}

[[noreturn]] void throw_open(std::uint8_t subcode, const std::string& what) {
  throw WireError(NotifyCode::kOpenMessageError, subcode, what);
}

void write_capability(netbase::ByteWriter& w, std::uint8_t code,
                      std::span<const std::uint8_t> payload) {
  w.u8(code);
  w.u8(static_cast<std::uint8_t>(payload.size()));
  w.bytes(payload);
}

}  // namespace

std::string to_string(NotifyCode code) {
  switch (code) {
    case NotifyCode::kMessageHeaderError:
      return "Message Header Error";
    case NotifyCode::kOpenMessageError:
      return "OPEN Message Error";
    case NotifyCode::kUpdateMessageError:
      return "UPDATE Message Error";
    case NotifyCode::kHoldTimerExpired:
      return "Hold Timer Expired";
    case NotifyCode::kFsmError:
      return "Finite State Machine Error";
    case NotifyCode::kCease:
      return "Cease";
    case NotifyCode::kRouteRefreshError:
      return "ROUTE-REFRESH Message Error";
    case NotifyCode::kSendHoldTimerExpired:
      return "Send Hold Timer Expired";
  }
  return "error " + std::to_string(static_cast<int>(code));
}

std::string notify_subcode_name(NotifyCode code, std::uint8_t subcode) {
  switch (code) {
    case NotifyCode::kMessageHeaderError:
      switch (subcode) {
        case kHdrConnectionNotSynchronized: return "Connection Not Synchronized";
        case kHdrBadMessageLength: return "Bad Message Length";
        case kHdrBadMessageType: return "Bad Message Type";
      }
      break;
    case NotifyCode::kOpenMessageError:
      switch (subcode) {
        case kOpenUnsupportedVersion: return "Unsupported Version Number";
        case kOpenBadPeerAs: return "Bad Peer AS";
        case kOpenBadBgpIdentifier: return "Bad BGP Identifier";
        case kOpenUnsupportedOptionalParameter: return "Unsupported Optional Parameter";
        case kOpenUnacceptableHoldTime: return "Unacceptable Hold Time";
        case kOpenUnsupportedCapability: return "Unsupported Capability";
      }
      break;
    case NotifyCode::kUpdateMessageError:
      switch (subcode) {
        case kUpdMalformedAttributeList: return "Malformed Attribute List";
        case 2: return "Unrecognized Well-known Attribute";
        case 3: return "Missing Well-known Attribute";
        case 4: return "Attribute Flags Error";
        case 5: return "Attribute Length Error";
        case 6: return "Invalid ORIGIN Attribute";
        case 8: return "Invalid NEXT_HOP Attribute";
        case 9: return "Optional Attribute Error";
        case kUpdInvalidNetworkField: return "Invalid Network Field";
        case kUpdMalformedAsPath: return "Malformed AS_PATH";
      }
      break;
    case NotifyCode::kCease:
      switch (subcode) {
        case 1: return "Maximum Number of Prefixes Reached";
        case kCeaseAdminShutdown: return "Administrative Shutdown";
        case kCeasePeerDeconfigured: return "Peer De-configured";
        case kCeaseAdminReset: return "Administrative Reset";
        case kCeaseConnectionRejected: return "Connection Rejected";
        case 6: return "Other Configuration Change";
        case kCeaseConnectionCollision: return "Connection Collision Resolution";
        case kCeaseOutOfResources: return "Out of Resources";
      }
      break;
    default:
      break;
  }
  if (subcode == 0) return "unspecific";
  return "subcode " + std::to_string(subcode);
}

MessageHeader decode_header(std::span<const std::uint8_t> wire) {
  if (wire.size() < kHeaderSize)
    throw netbase::DecodeError("wire: header needs 19 bytes");
  for (std::size_t i = 0; i < 16; ++i) {
    if (wire[i] != kMarkerByte)
      throw_header(kHdrConnectionNotSynchronized, "wire: bad marker");
  }
  MessageHeader header;
  header.length = static_cast<std::uint16_t>((wire[16] << 8) | wire[17]);
  const std::uint8_t type = wire[18];
  if (type < 1 || type > 4)
    throw_header(kHdrBadMessageType,
                 "wire: bad message type " + std::to_string(type));
  header.type = static_cast<bgp::MessageType>(type);
  if (header.length > kMaxMessageSize)
    throw_header(kHdrBadMessageLength,
                 "wire: length " + std::to_string(header.length) + " > 4096");
  if (header.length < min_length_for(header.type))
    throw_header(kHdrBadMessageLength,
                 "wire: length " + std::to_string(header.length) +
                     " below minimum for type " + std::to_string(type));
  if (header.type == bgp::MessageType::kKeepalive && header.length != kHeaderSize)
    throw_header(kHdrBadMessageLength, "wire: KEEPALIVE must be 19 bytes");
  return header;
}

std::size_t begin_message(netbase::ByteWriter& w, bgp::MessageType type) {
  for (int i = 0; i < 16; ++i) w.u8(kMarkerByte);
  const std::size_t length_at = w.reserve(2);
  w.u8(static_cast<std::uint8_t>(type));
  return length_at;
}

// --- OPEN ------------------------------------------------------------

std::vector<std::uint8_t> OpenMessage::encode() const {
  netbase::ByteWriter w;
  const std::size_t length_at = begin_message(w, bgp::MessageType::kOpen);
  w.u8(version);
  w.u16(asn <= 0xffff ? static_cast<std::uint16_t>(asn) : kAsTrans);
  w.u16(hold_time);
  w.u32(bgp_id);

  netbase::ByteWriter caps;
  if (cap_four_octet_asn) {
    netbase::ByteWriter p;
    p.u32(asn);
    write_capability(caps, kCapFourOctetAsn, p.data());
  }
  for (const auto& [afi, safi] : multiprotocol) {
    netbase::ByteWriter p;
    p.u16(afi);
    p.u8(0);  // reserved
    p.u8(safi);
    write_capability(caps, kCapMultiprotocol, p.data());
  }
  if (cap_route_refresh) write_capability(caps, kCapRouteRefresh, {});
  if (graceful_restart.has_value()) {
    netbase::ByteWriter p;
    std::uint16_t head = graceful_restart->restart_time & 0x0fff;
    if (graceful_restart->restarting) head |= 0x8000;
    p.u16(head);
    for (const GrTuple& t : graceful_restart->tuples) {
      p.u16(t.afi);
      p.u8(t.safi);
      p.u8(t.forwarding_preserved ? 0x80 : 0x00);
    }
    write_capability(caps, kCapGracefulRestart, p.data());
  }
  if (llgr.has_value()) {
    netbase::ByteWriter p;
    for (const LlgrTuple& t : llgr->tuples) {
      p.u16(t.afi);
      p.u8(t.safi);
      p.u8(0);  // flags (no F bit needed: the control plane is the point)
      p.u8(static_cast<std::uint8_t>((t.stale_time >> 16) & 0xff));
      p.u8(static_cast<std::uint8_t>((t.stale_time >> 8) & 0xff));
      p.u8(static_cast<std::uint8_t>(t.stale_time & 0xff));
    }
    write_capability(caps, kCapLlgr, p.data());
  }
  if (bridge_peer_address.has_value()) {
    netbase::ByteWriter p;
    p.u8(bridge_peer_address->is_v4() ? 4 : 6);
    p.bytes(std::span(bridge_peer_address->bytes())
                .first(static_cast<std::size_t>(bridge_peer_address->byte_length())));
    write_capability(caps, kCapBridgePeerAddress, p.data());
  }
  for (const RawCapability& c : unknown_capabilities)
    write_capability(caps, c.code, c.payload);

  if (caps.size() == 0) {
    w.u8(0);  // no optional parameters
  } else {
    w.u8(static_cast<std::uint8_t>(caps.size() + 2));
    w.u8(kOptParamCapabilities);
    w.u8(static_cast<std::uint8_t>(caps.size()));
    w.bytes(caps.data());
  }
  auto out = w.take();
  out[length_at] = static_cast<std::uint8_t>(out.size() >> 8);
  out[length_at + 1] = static_cast<std::uint8_t>(out.size() & 0xff);
  return out;
}

OpenMessage OpenMessage::decode(std::span<const std::uint8_t> wire) {
  const MessageHeader header = decode_header(wire);
  if (header.type != bgp::MessageType::kOpen)
    throw_open(0, "wire: not an OPEN");
  if (header.length != wire.size())
    throw_header(kHdrBadMessageLength, "wire: OPEN length mismatch");

  netbase::ByteReader r(wire.subspan(kHeaderSize));
  OpenMessage open;
  open.cap_four_octet_asn = false;
  open.version = r.u8();
  if (open.version != kBgpVersion)
    throw_open(kOpenUnsupportedVersion,
               "wire: BGP version " + std::to_string(open.version));
  open.asn = r.u16();
  open.hold_time = r.u16();
  // §4.2: hold time MUST be 0 or at least 3 seconds.
  if (open.hold_time == 1 || open.hold_time == 2)
    throw_open(kOpenUnacceptableHoldTime,
               "wire: hold time " + std::to_string(open.hold_time));
  open.bgp_id = r.u32();
  if (open.bgp_id == 0)
    throw_open(kOpenBadBgpIdentifier, "wire: BGP identifier 0");

  std::size_t opt_len = r.u8();
  if (opt_len != r.remaining())
    throw_open(0, "wire: optional parameter length mismatch");
  while (!r.done()) {
    const std::uint8_t param_type = r.u8();
    const std::uint8_t param_len = r.u8();
    if (param_len > r.remaining())
      throw_open(0, "wire: optional parameter truncated");
    netbase::ByteReader p = r.sub(param_len);
    if (param_type != kOptParamCapabilities)
      throw_open(kOpenUnsupportedOptionalParameter,
                 "wire: optional parameter " + std::to_string(param_type));
    while (!p.done()) {
      if (p.remaining() < 2) throw_open(0, "wire: capability truncated");
      const std::uint8_t cap_code = p.u8();
      const std::uint8_t cap_len = p.u8();
      if (cap_len > p.remaining())
        throw_open(0, "wire: capability " + std::to_string(cap_code) + " truncated");
      netbase::ByteReader c = p.sub(cap_len);
      switch (cap_code) {
        case kCapFourOctetAsn: {
          if (cap_len != 4) throw_open(0, "wire: 4-octet-AS capability length");
          open.cap_four_octet_asn = true;
          open.asn = c.u32();
          break;
        }
        case kCapMultiprotocol: {
          if (cap_len != 4) throw_open(0, "wire: multiprotocol capability length");
          const std::uint16_t afi = c.u16();
          c.u8();  // reserved
          open.multiprotocol.emplace_back(afi, c.u8());
          break;
        }
        case kCapRouteRefresh:
          open.cap_route_refresh = true;
          break;
        case kCapGracefulRestart: {
          if (cap_len < 2 || (cap_len - 2) % 4 != 0)
            throw_open(0, "wire: graceful-restart capability length");
          GracefulRestart gr;
          const std::uint16_t head = c.u16();
          gr.restarting = (head & 0x8000) != 0;
          gr.restart_time = head & 0x0fff;
          while (!c.done()) {
            GrTuple t;
            t.afi = c.u16();
            t.safi = c.u8();
            t.forwarding_preserved = (c.u8() & 0x80) != 0;
            gr.tuples.push_back(t);
          }
          open.graceful_restart = std::move(gr);
          break;
        }
        case kCapLlgr: {
          if (cap_len % 7 != 0) throw_open(0, "wire: LLGR capability length");
          LongLivedGracefulRestart llgr;
          while (!c.done()) {
            LlgrTuple t;
            t.afi = c.u16();
            t.safi = c.u8();
            c.u8();  // flags
            t.stale_time = static_cast<std::uint32_t>(c.u8()) << 16;
            t.stale_time |= static_cast<std::uint32_t>(c.u8()) << 8;
            t.stale_time |= c.u8();
            llgr.tuples.push_back(t);
          }
          open.llgr = std::move(llgr);
          break;
        }
        case kCapBridgePeerAddress: {
          if (cap_len != 5 && cap_len != 17)
            throw_open(0, "wire: bridge peer-address capability length");
          const std::uint8_t family = c.u8();
          if (family == 4 && cap_len == 5) {
            std::array<std::uint8_t, 4> b{};
            const auto s = c.bytes(4);
            std::copy(s.begin(), s.end(), b.begin());
            open.bridge_peer_address = netbase::IpAddress::v4(b);
          } else if (family == 6 && cap_len == 17) {
            std::array<std::uint8_t, 16> b{};
            const auto s = c.bytes(16);
            std::copy(s.begin(), s.end(), b.begin());
            open.bridge_peer_address = netbase::IpAddress::v6(b);
          } else {
            throw_open(0, "wire: bridge peer-address family/length mismatch");
          }
          break;
        }
        default: {
          RawCapability raw;
          raw.code = cap_code;
          const auto s = c.bytes(c.remaining());
          raw.payload.assign(s.begin(), s.end());
          open.unknown_capabilities.push_back(std::move(raw));
          break;
        }
      }
    }
  }
  if (open.asn == 0) throw_open(kOpenBadPeerAs, "wire: peer AS 0");
  return open;
}

// --- NOTIFICATION ----------------------------------------------------

std::vector<std::uint8_t> NotificationMessage::encode() const {
  netbase::ByteWriter w;
  const std::size_t length_at = begin_message(w, bgp::MessageType::kNotification);
  w.u8(static_cast<std::uint8_t>(code));
  w.u8(subcode);
  w.bytes(data);
  auto out = w.take();
  out[length_at] = static_cast<std::uint8_t>(out.size() >> 8);
  out[length_at + 1] = static_cast<std::uint8_t>(out.size() & 0xff);
  return out;
}

NotificationMessage NotificationMessage::decode(std::span<const std::uint8_t> wire) {
  const MessageHeader header = decode_header(wire);
  if (header.type != bgp::MessageType::kNotification)
    throw netbase::DecodeError("wire: not a NOTIFICATION");
  if (header.length != wire.size())
    throw_header(kHdrBadMessageLength, "wire: NOTIFICATION length mismatch");
  netbase::ByteReader r(wire.subspan(kHeaderSize));
  NotificationMessage n;
  n.code = static_cast<NotifyCode>(r.u8());
  n.subcode = r.u8();
  const auto rest = r.bytes(r.remaining());
  n.data.assign(rest.begin(), rest.end());
  return n;
}

std::string NotificationMessage::to_string() const {
  return wire::to_string(code) + "/" + notify_subcode_name(code, subcode);
}

// --- KEEPALIVE / UPDATE ----------------------------------------------

std::vector<std::uint8_t> encode_keepalive() {
  netbase::ByteWriter w;
  const std::size_t length_at = begin_message(w, bgp::MessageType::kKeepalive);
  auto out = w.take();
  out[length_at] = 0;
  out[length_at + 1] = kHeaderSize;
  return out;
}

namespace {

WireError oversize_update(std::size_t size) {
  return WireError(NotifyCode::kUpdateMessageError, kUpdMalformedAttributeList,
                   "wire: UPDATE encodes to " + std::to_string(size) +
                       " bytes (max 4096); split the routes");
}

}  // namespace

std::vector<std::uint8_t> encode_update(const bgp::UpdateMessage& update) {
  auto wire = update.encode();
  if (wire.size() > kMaxMessageSize) throw oversize_update(wire.size());
  return wire;
}

std::size_t encode_update_into(std::vector<std::uint8_t>& out,
                               const bgp::UpdateMessage& update,
                               std::span<const bgp::RawAttribute> extra) {
  const std::size_t start = out.size();
  update.encode_into(out, extra);
  const std::size_t size = out.size() - start;
  if (size > kMaxMessageSize) {
    out.resize(start);
    throw oversize_update(size);
  }
  return size;
}

bgp::UpdateMessage decode_update(std::span<const std::uint8_t> wire) {
  decode_header(wire);  // marker/length/type validation with header subcodes
  try {
    return bgp::UpdateMessage::decode(wire);
  } catch (const WireError&) {
    throw;
  } catch (const netbase::DecodeError& e) {
    throw WireError(NotifyCode::kUpdateMessageError, kUpdMalformedAttributeList,
                    e.what());
  }
}

// --- FrameReader -----------------------------------------------------

void FrameReader::append(std::span<const std::uint8_t> bytes) {
  append(bytes.data(), bytes.size());
}

void FrameReader::append(const std::uint8_t* data, std::size_t size) {
  // Compact once per append, not once per frame: next() only advances
  // the read offset, so framing a buffer of n messages stays linear.
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
  offset_ = 0;
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<std::vector<std::uint8_t>> FrameReader::next() {
  const std::span<const std::uint8_t> pending =
      std::span<const std::uint8_t>(buffer_).subspan(offset_);
  if (pending.size() < kHeaderSize) return std::nullopt;
  // Validates marker/length/type as soon as the header is in; a bogus
  // header fails here rather than stalling on a nonsense length.
  const MessageHeader header = decode_header(pending);
  if (pending.size() < header.length) return std::nullopt;
  offset_ += header.length;
  return std::vector<std::uint8_t>(pending.begin(), pending.begin() + header.length);
}

}  // namespace zombiescope::wire
