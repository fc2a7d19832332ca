#include "bgp/update.hpp"

#include <algorithm>

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

void split_by_family(std::span<const Prefix> in, std::vector<Prefix>& v4,
                     std::vector<Prefix>& v6) {
  for (const auto& p : in) (p.is_v4() ? v4 : v6).push_back(p);
}

std::vector<std::uint8_t> encode_mp_reach(const IpAddress& next_hop,
                                          std::span<const Prefix> v6_nlri) {
  ByteWriter w;
  w.u16(kAfiIpv6);
  w.u8(kSafiUnicast);
  w.u8(16);  // next-hop length
  w.bytes(std::span<const std::uint8_t>(next_hop.bytes().data(), 16));
  w.u8(0);  // reserved / SNPA count
  encode_nlri(w, v6_nlri);
  return w.take();
}

std::vector<std::uint8_t> encode_mp_unreach(std::span<const Prefix> v6_withdrawn) {
  ByteWriter w;
  w.u16(kAfiIpv6);
  w.u8(kSafiUnicast);
  encode_nlri(w, v6_withdrawn);
  return w.take();
}

}  // namespace

namespace wire {

void write_attribute(ByteWriter& w, std::uint8_t flags, AttrType type,
                     std::span<const std::uint8_t> payload) {
  // The extended-length flag must agree with the length field we emit;
  // normalize it both ways (a preserved unknown attribute may carry a
  // gratuitous extended-length flag from the wire).
  const bool extended = payload.size() > 255;
  if (extended)
    flags |= kAttrFlagExtendedLength;
  else
    flags = static_cast<std::uint8_t>(flags & ~kAttrFlagExtendedLength);
  w.u8(flags);
  w.u8(static_cast<std::uint8_t>(type));
  if (extended)
    w.u16(static_cast<std::uint16_t>(payload.size()));
  else
    w.u8(static_cast<std::uint8_t>(payload.size()));
  w.bytes(payload);
}

}  // namespace wire

using wire::encode_as_path;
using wire::write_attribute;

void encode_nlri(ByteWriter& w, std::span<const Prefix> prefixes) {
  for (const auto& p : prefixes) {
    w.u8(static_cast<std::uint8_t>(p.length()));
    const int nbytes = (p.length() + 7) / 8;
    w.bytes(std::span<const std::uint8_t>(p.address().bytes().data(),
                                          static_cast<std::size_t>(nbytes)));
  }
}

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
  std::vector<Prefix> withdrawn_v4, withdrawn_v6, announced_v4, announced_v6;
  split_by_family(withdrawn, withdrawn_v4, withdrawn_v6);
  split_by_family(announced, announced_v4, announced_v6);

  ByteWriter body;

  // Withdrawn Routes (IPv4 only at top level).
  {
    ByteWriter nlri;
    encode_nlri(nlri, withdrawn_v4);
    body.u16(static_cast<std::uint16_t>(nlri.size()));
    body.bytes(nlri.data());
  }

  // Path attributes.
  ByteWriter attrs;
  const bool has_reach = !announced.empty();
  if (has_reach) {
    attrs.u8(kAttrFlagTransitive);
    attrs.u8(static_cast<std::uint8_t>(AttrType::kOrigin));
    attrs.u8(1);
    attrs.u8(static_cast<std::uint8_t>(attributes.origin));

    write_attribute(attrs, kAttrFlagTransitive, AttrType::kAsPath,
                    encode_as_path(attributes.as_path));

    if (!announced_v4.empty()) {
      // In the (rare) mixed-family case the configured next hop may be
      // v6; fall back to the unspecified v4 next hop for the NEXT_HOP
      // attribute, as the v6 hop travels inside MP_REACH_NLRI.
      IpAddress nh = attributes.next_hop.value_or(IpAddress::v4(0u));
      if (!nh.is_v4()) nh = IpAddress::v4(0u);
      attrs.u8(kAttrFlagTransitive);
      attrs.u8(static_cast<std::uint8_t>(AttrType::kNextHop));
      attrs.u8(4);
      attrs.bytes(std::span<const std::uint8_t>(nh.bytes().data(), 4));
    }
    if (attributes.med) {
      attrs.u8(kAttrFlagOptional);
      attrs.u8(static_cast<std::uint8_t>(AttrType::kMultiExitDisc));
      attrs.u8(4);
      attrs.u32(*attributes.med);
    }
    if (attributes.local_pref) {
      attrs.u8(kAttrFlagTransitive);
      attrs.u8(static_cast<std::uint8_t>(AttrType::kLocalPref));
      attrs.u8(4);
      attrs.u32(*attributes.local_pref);
    }
    if (attributes.atomic_aggregate) {
      attrs.u8(kAttrFlagTransitive);
      attrs.u8(static_cast<std::uint8_t>(AttrType::kAtomicAggregate));
      attrs.u8(0);
    }
    if (attributes.aggregator) {
      if (!attributes.aggregator->address.is_v4())
        throw DecodeError("AGGREGATOR address must be IPv4");
      attrs.u8(kAttrFlagOptional | kAttrFlagTransitive);
      attrs.u8(static_cast<std::uint8_t>(AttrType::kAggregator));
      attrs.u8(8);
      attrs.u32(attributes.aggregator->asn);
      attrs.bytes(std::span<const std::uint8_t>(attributes.aggregator->address.bytes().data(), 4));
    }
    if (!attributes.communities.empty()) {
      ByteWriter cw;
      for (const auto& c : attributes.communities) cw.u32(c.value());
      write_attribute(attrs, kAttrFlagOptional | kAttrFlagTransitive, AttrType::kCommunities,
                      cw.take());
    }
    if (!announced_v6.empty()) {
      std::array<std::uint8_t, 16> zero{};
      IpAddress nh = attributes.next_hop.value_or(IpAddress::v6(zero));
      if (!nh.is_v6()) nh = IpAddress::v6(zero);
      write_attribute(attrs, kAttrFlagOptional, AttrType::kMpReachNlri,
                      encode_mp_reach(nh, announced_v6));
    }
  }
  if (!withdrawn_v6.empty()) {
    write_attribute(attrs, kAttrFlagOptional, AttrType::kMpUnreachNlri,
                    encode_mp_unreach(withdrawn_v6));
  }
  for (const auto& raw : attributes.unknown) {
    write_attribute(attrs, raw.flags, static_cast<AttrType>(raw.type), raw.payload);
  }

  body.u16(static_cast<std::uint16_t>(attrs.size()));
  body.bytes(attrs.data());

  // Top-level NLRI (IPv4 only).
  encode_nlri(body, announced_v4);

  // BGP header.
  ByteWriter msg;
  for (int i = 0; i < 16; ++i) msg.u8(0xff);
  msg.u16(static_cast<std::uint16_t>(19 + body.size()));
  msg.u8(static_cast<std::uint8_t>(MessageType::kUpdate));
  msg.bytes(body.data());
  return msg.take();
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
