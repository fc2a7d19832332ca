#include "bgp/update.hpp"

#include <algorithm>
#include <array>

#include "bgp/types.hpp"

namespace zombiescope::bgp {

namespace {

using netbase::AddressFamily;
using netbase::ByteReader;
using netbase::ByteWriter;
using netbase::DecodeError;
using netbase::IpAddress;
using netbase::Prefix;

constexpr std::uint16_t kAfiIpv4 = 1;
constexpr std::uint16_t kAfiIpv6 = 2;
constexpr std::uint8_t kSafiUnicast = 1;

// The flags byte as sent: the extended-length bit must agree with the
// length field, so it is normalized both ways (a preserved unknown
// attribute may carry a gratuitous extended-length flag from the wire).
std::uint8_t length_flags(std::uint8_t flags, std::size_t length) {
  return length > 255 ? static_cast<std::uint8_t>(flags | kAttrFlagExtendedLength)
                      : static_cast<std::uint8_t>(flags & ~kAttrFlagExtendedLength);
}

// Big-endian appends and back-patches on the caller's buffer.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

void put_bytes(std::vector<std::uint8_t>& out, const std::uint8_t* data, std::size_t n) {
  out.insert(out.end(), data, data + n);
}

// A 16-bit length of the bytes after it, from `at` to the end.
void patch_length(std::vector<std::uint8_t>& out, std::size_t at) {
  const std::size_t length = out.size() - at - 2;
  out[at] = static_cast<std::uint8_t>(length >> 8);
  out[at + 1] = static_cast<std::uint8_t>(length);
}

// NLRI encoding: a length byte and the address's significant bytes.
void put_prefix(std::vector<std::uint8_t>& out, const Prefix& p) {
  out.push_back(static_cast<std::uint8_t>(p.length()));
  put_bytes(out, p.address().bytes().data(), static_cast<std::size_t>((p.length() + 7) / 8));
}

// A fixed-size attribute's header.
void put_header(std::vector<std::uint8_t>& out, std::uint8_t flags, AttrType type,
                std::uint8_t length) {
  out.push_back(flags);
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(length);
}

// An attribute whose payload is written next: its header with a
// one-byte length that end_attribute() fills in. Returns where the
// payload starts.
std::size_t begin_attribute(std::vector<std::uint8_t>& out, std::uint8_t flags,
                            AttrType type) {
  put_header(out, flags, type, 0);
  return out.size();
}

// Fills in the length of the attribute whose payload starts at
// `payload` and runs to the end. A payload over 255 bytes takes the
// two-byte extended length, so it moves up one byte; one over 65,535
// makes the whole message too long, which encode_into() rejects.
void end_attribute(std::vector<std::uint8_t>& out, std::size_t payload) {
  const std::size_t length = out.size() - payload;
  out[payload - 3] = length_flags(out[payload - 3], length);
  if (length <= 255) {
    out[payload - 1] = static_cast<std::uint8_t>(length);
    return;
  }
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(payload), 0);
  out[payload - 1] = static_cast<std::uint8_t>(length >> 8);
  out[payload] = static_cast<std::uint8_t>(length);
}

// An attribute with its payload in hand.
void put_attribute(std::vector<std::uint8_t>& out, std::uint8_t flags, std::uint8_t type,
                   std::span<const std::uint8_t> payload) {
  const std::size_t at = begin_attribute(out, flags, static_cast<AttrType>(type));
  put_bytes(out, payload.data(), payload.size());
  end_attribute(out, at);
}

}  // namespace

namespace wire {

void write_attribute(ByteWriter& w, std::uint8_t flags, AttrType type,
                     std::span<const std::uint8_t> payload) {
  w.u8(length_flags(flags, payload.size()));
  w.u8(static_cast<std::uint8_t>(type));
  if (payload.size() > 255)
    w.u16(static_cast<std::uint16_t>(payload.size()));
  else
    w.u8(static_cast<std::uint8_t>(payload.size()));
  w.bytes(payload);
}

}  // namespace wire

void decode_nlri(ByteReader& r, AddressFamily family, std::vector<Prefix>& out) {
  while (!r.done()) {
    const int length = r.u8();
    const int max_len = family == AddressFamily::kIpv4 ? 32 : 128;
    if (length > max_len) throw DecodeError("NLRI: prefix length out of range");
    const int nbytes = (length + 7) / 8;
    auto raw = r.bytes(static_cast<std::size_t>(nbytes));
    std::array<std::uint8_t, 16> bytes{};
    std::copy(raw.begin(), raw.end(), bytes.begin());
    IpAddress addr = family == AddressFamily::kIpv4
                         ? IpAddress::v4({bytes[0], bytes[1], bytes[2], bytes[3]})
                         : IpAddress::v6(bytes);
    out.emplace_back(addr, length);
  }
}

std::vector<std::uint8_t> UpdateMessage::encode() const {
  std::vector<std::uint8_t> out;
  // Room for the header, the fixed attributes and a short path, so a
  // typical message is written without the buffer growing.
  out.reserve(128);
  encode_into(out);
  return out;
}

void UpdateMessage::encode_into(std::vector<std::uint8_t>& out,
                                std::span<const RawAttribute> extra) const {
  const bool has_reach = !announced.empty();
  if (has_reach && attributes.aggregator && !attributes.aggregator->address.is_v4())
    throw DecodeError("AGGREGATOR address must be IPv4");
  const std::size_t start = out.size();

  // BGP header; the length is patched last.
  out.insert(out.end(), 16, 0xff);
  put_u16(out, 0);
  out.push_back(static_cast<std::uint8_t>(MessageType::kUpdate));

  // Withdrawn Routes: IPv4 at the top level, IPv6 in MP_UNREACH_NLRI.
  const std::size_t withdrawn_at = out.size();
  put_u16(out, 0);
  bool withdrawn_v6 = false;
  for (const Prefix& p : withdrawn) {
    if (p.is_v4())
      put_prefix(out, p);
    else
      withdrawn_v6 = true;
  }
  patch_length(out, withdrawn_at);

  // Path attributes.
  const std::size_t attributes_at = out.size();
  put_u16(out, 0);
  if (has_reach) {
    bool announced_v4 = false;
    bool announced_v6 = false;
    for (const Prefix& p : announced) (p.is_v4() ? announced_v4 : announced_v6) = true;

    put_header(out, kAttrFlagTransitive, AttrType::kOrigin, 1);
    out.push_back(static_cast<std::uint8_t>(attributes.origin));

    std::size_t payload = begin_attribute(out, kAttrFlagTransitive, AttrType::kAsPath);
    for (const PathSegment segment : attributes.as_path.segments()) {
      out.push_back(static_cast<std::uint8_t>(segment.type));
      out.push_back(static_cast<std::uint8_t>(segment.asns.size()));
      for (const Asn asn : segment.asns) put_u32(out, asn);  // 4-byte ASNs (RFC 6793)
    }
    end_attribute(out, payload);

    if (announced_v4) {
      // In the (rare) mixed-family case the configured next hop may be
      // v6; fall back to the unspecified v4 next hop for the NEXT_HOP
      // attribute, as the v6 hop travels inside MP_REACH_NLRI.
      IpAddress nh = attributes.next_hop.value_or(IpAddress::v4(0u));
      if (!nh.is_v4()) nh = IpAddress::v4(0u);
      put_header(out, kAttrFlagTransitive, AttrType::kNextHop, 4);
      put_bytes(out, nh.bytes().data(), 4);
    }
    if (attributes.med) {
      put_header(out, kAttrFlagOptional, AttrType::kMultiExitDisc, 4);
      put_u32(out, *attributes.med);
    }
    if (attributes.local_pref) {
      put_header(out, kAttrFlagTransitive, AttrType::kLocalPref, 4);
      put_u32(out, *attributes.local_pref);
    }
    if (attributes.atomic_aggregate)
      put_header(out, kAttrFlagTransitive, AttrType::kAtomicAggregate, 0);
    if (attributes.aggregator) {
      put_header(out, kAttrFlagOptional | kAttrFlagTransitive, AttrType::kAggregator, 8);
      put_u32(out, attributes.aggregator->asn);
      put_bytes(out, attributes.aggregator->address.bytes().data(), 4);
    }
    if (!attributes.communities.empty()) {
      payload = begin_attribute(out, kAttrFlagOptional | kAttrFlagTransitive,
                                AttrType::kCommunities);
      for (const Community& c : attributes.communities) put_u32(out, c.value());
      end_attribute(out, payload);
    }
    if (announced_v6) {
      std::array<std::uint8_t, 16> zero{};
      IpAddress nh = attributes.next_hop.value_or(IpAddress::v6(zero));
      if (!nh.is_v6()) nh = IpAddress::v6(zero);
      payload = begin_attribute(out, kAttrFlagOptional, AttrType::kMpReachNlri);
      put_u16(out, kAfiIpv6);
      out.push_back(kSafiUnicast);
      out.push_back(16);  // next-hop length
      put_bytes(out, nh.bytes().data(), 16);
      out.push_back(0);  // reserved / SNPA count
      for (const Prefix& p : announced)
        if (!p.is_v4()) put_prefix(out, p);
      end_attribute(out, payload);
    }
  }
  if (withdrawn_v6) {
    const std::size_t payload =
        begin_attribute(out, kAttrFlagOptional, AttrType::kMpUnreachNlri);
    put_u16(out, kAfiIpv6);
    out.push_back(kSafiUnicast);
    for (const Prefix& p : withdrawn)
      if (!p.is_v4()) put_prefix(out, p);
    end_attribute(out, payload);
  }
  for (const RawAttribute& raw : attributes.unknown)
    put_attribute(out, raw.flags, raw.type, raw.payload);
  for (const RawAttribute& raw : extra) put_attribute(out, raw.flags, raw.type, raw.payload);
  patch_length(out, attributes_at);

  // Top-level NLRI (IPv4 only).
  for (const Prefix& p : announced)
    if (p.is_v4()) put_prefix(out, p);

  const std::size_t length = out.size() - start;
  if (length > 0xffff) {
    out.resize(start);
    throw DecodeError("UPDATE: encodes to " + std::to_string(length) +
                      " bytes, over the 65535 its length field can state");
  }
  out[start + 16] = static_cast<std::uint8_t>(length >> 8);
  out[start + 17] = static_cast<std::uint8_t>(length);
}

UpdateMessage UpdateMessage::decode(std::span<const std::uint8_t> wire,
                                    AsPathInterner* paths) {
  ByteReader r(wire);
  for (int i = 0; i < 16; ++i) {
    if (r.u8() != 0xff) throw DecodeError("BGP header: bad marker");
  }
  const std::uint16_t length = r.u16();
  if (length != wire.size()) throw DecodeError("BGP header: length mismatch");
  const auto type = static_cast<MessageType>(r.u8());
  if (type != MessageType::kUpdate) throw DecodeError("not an UPDATE message");

  UpdateMessage msg;

  const std::uint16_t withdrawn_len = r.u16();
  {
    ByteReader wr = r.sub(withdrawn_len);
    decode_nlri(wr, AddressFamily::kIpv4, msg.withdrawn);
  }

  const std::uint16_t attrs_len = r.u16();
  ByteReader ar = r.sub(attrs_len);
  while (!ar.done()) {
    const std::uint8_t flags = ar.u8();
    const std::uint8_t type_code = ar.u8();
    const std::size_t len = (flags & kAttrFlagExtendedLength) ? ar.u16() : ar.u8();
    ByteReader pr = ar.sub(len);
    switch (static_cast<AttrType>(type_code)) {
      case AttrType::kOrigin: {
        const std::uint8_t v = pr.u8();
        if (v > 2) throw DecodeError("ORIGIN: bad value");
        msg.attributes.origin = static_cast<Origin>(v);
        break;
      }
      case AttrType::kAsPath: {
        const auto payload = pr.bytes(pr.remaining());
        msg.attributes.as_path =
            paths != nullptr ? paths->decode(payload) : wire::decode_as_path(payload);
        break;
      }
      case AttrType::kNextHop: {
        auto raw = pr.bytes(4);
        msg.attributes.next_hop = IpAddress::v4({raw[0], raw[1], raw[2], raw[3]});
        break;
      }
      case AttrType::kMultiExitDisc:
        msg.attributes.med = pr.u32();
        break;
      case AttrType::kLocalPref:
        msg.attributes.local_pref = pr.u32();
        break;
      case AttrType::kAtomicAggregate:
        msg.attributes.atomic_aggregate = true;
        break;
      case AttrType::kAggregator: {
        Aggregator agg;
        agg.asn = pr.u32();
        auto raw = pr.bytes(4);
        agg.address = IpAddress::v4({raw[0], raw[1], raw[2], raw[3]});
        msg.attributes.aggregator = agg;
        break;
      }
      case AttrType::kCommunities: {
        while (!pr.done()) msg.attributes.communities.push_back(Community::from_value(pr.u32()));
        break;
      }
      case AttrType::kMpReachNlri: {
        const std::uint16_t afi = pr.u16();
        const std::uint8_t safi = pr.u8();
        if (afi != kAfiIpv6 || safi != kSafiUnicast)
          throw DecodeError("MP_REACH_NLRI: unsupported AFI/SAFI");
        const std::uint8_t nh_len = pr.u8();
        if (nh_len != 16 && nh_len != 32)
          throw DecodeError("MP_REACH_NLRI: bad next-hop length");
        auto nh_raw = pr.bytes(nh_len);
        std::array<std::uint8_t, 16> nh{};
        std::copy(nh_raw.begin(), nh_raw.begin() + 16, nh.begin());
        msg.attributes.next_hop = IpAddress::v6(nh);
        pr.u8();  // reserved
        decode_nlri(pr, AddressFamily::kIpv6, msg.announced);
        break;
      }
      case AttrType::kMpUnreachNlri: {
        const std::uint16_t afi = pr.u16();
        const std::uint8_t safi = pr.u8();
        if (afi != kAfiIpv6 || safi != kSafiUnicast)
          throw DecodeError("MP_UNREACH_NLRI: unsupported AFI/SAFI");
        decode_nlri(pr, AddressFamily::kIpv6, msg.withdrawn);
        break;
      }
      default: {
        RawAttribute raw;
        raw.flags = flags;
        raw.type = type_code;
        auto payload = pr.bytes(pr.remaining());
        raw.payload.assign(payload.begin(), payload.end());
        msg.attributes.unknown.push_back(std::move(raw));
        break;
      }
    }
    pr.expect_done("path attribute");
  }

  decode_nlri(r, AddressFamily::kIpv4, msg.announced);
  return msg;
}

std::string UpdateMessage::summary() const {
  std::string out;
  if (is_announcement()) {
    out += "A";
    for (const auto& p : announced) out += " " + p.to_string();
    out += " path=[" + attributes.as_path.to_string() + "]";
    if (attributes.aggregator)
      out += " agg=" + std::to_string(attributes.aggregator->asn) + "/" +
             attributes.aggregator->address.to_string();
  }
  if (!withdrawn.empty()) {
    if (!out.empty()) out += "; ";
    out += "W";
    for (const auto& p : withdrawn) out += " " + p.to_string();
  }
  return out;
}

}  // namespace zombiescope::bgp
