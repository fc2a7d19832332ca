#include "mrt/codec.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "bgp/attributes.hpp"
#include "obs/metrics.hpp"

namespace zombiescope::mrt {

namespace {

// Codec telemetry: byte/record throughput per direction, per-type
// record counts, and a size histogram — enough to audit how much MRT
// each pipeline stage emits. Bound once; increments are relaxed
// atomics.
struct CodecMetrics {
  obs::Counter bytes_encoded = obs::Registry::global().counter("zs_mrt_bytes_encoded_total");
  obs::Counter bytes_decoded = obs::Registry::global().counter("zs_mrt_bytes_decoded_total");
  obs::Counter records_encoded =
      obs::Registry::global().counter("zs_mrt_records_encoded_total");
  obs::Counter records_decoded =
      obs::Registry::global().counter("zs_mrt_records_decoded_total");
  // Per-record-type counts, indexed by the MrtRecord variant order.
  std::array<obs::Counter, 4> encoded_by_type{
      obs::Registry::global().counter("zs_mrt_encoded_bgp4mp_message_total"),
      obs::Registry::global().counter("zs_mrt_encoded_bgp4mp_state_change_total"),
      obs::Registry::global().counter("zs_mrt_encoded_peer_index_table_total"),
      obs::Registry::global().counter("zs_mrt_encoded_rib_entry_total")};
  std::array<obs::Counter, 4> decoded_by_type{
      obs::Registry::global().counter("zs_mrt_decoded_bgp4mp_message_total"),
      obs::Registry::global().counter("zs_mrt_decoded_bgp4mp_state_change_total"),
      obs::Registry::global().counter("zs_mrt_decoded_peer_index_table_total"),
      obs::Registry::global().counter("zs_mrt_decoded_rib_entry_total")};
  obs::Histogram record_bytes =
      obs::Registry::global().histogram("zs_mrt_record_bytes", obs::byte_buckets());
};

CodecMetrics& codec_metrics() {
  static CodecMetrics metrics;
  return metrics;
}

using netbase::AddressFamily;
using netbase::ByteReader;
using netbase::ByteWriter;
using netbase::DecodeError;
using netbase::IpAddress;
using netbase::Prefix;

constexpr std::uint16_t kAfiIpv4 = 1;
constexpr std::uint16_t kAfiIpv6 = 2;

void write_common_header(ByteWriter& w, netbase::TimePoint timestamp, RecordType type,
                         std::uint16_t subtype, std::uint32_t body_length) {
  w.u32(static_cast<std::uint32_t>(timestamp));
  w.u16(static_cast<std::uint16_t>(type));
  w.u16(subtype);
  w.u32(body_length);
}

void write_address(ByteWriter& w, const IpAddress& address) {
  w.bytes(std::span<const std::uint8_t>(address.bytes().data(),
                                        static_cast<std::size_t>(address.byte_length())));
}

IpAddress read_address(ByteReader& r, AddressFamily family) {
  std::array<std::uint8_t, 16> bytes{};
  const std::size_t n = family == AddressFamily::kIpv4 ? 4 : 16;
  auto raw = r.bytes(n);
  std::copy(raw.begin(), raw.end(), bytes.begin());
  return family == AddressFamily::kIpv4
             ? IpAddress::v4({bytes[0], bytes[1], bytes[2], bytes[3]})
             : IpAddress::v6(bytes);
}

// The BGP4MP_MESSAGE_AS4 / STATE_CHANGE_AS4 shared per-record header.
void write_bgp4mp_header(ByteWriter& w, bgp::Asn peer_asn, bgp::Asn local_asn,
                         const IpAddress& peer, const IpAddress& local) {
  if (peer.family() != local.family())
    throw DecodeError("BGP4MP: peer/local address family mismatch");
  w.u32(peer_asn);
  w.u32(local_asn);
  w.u16(0);  // interface index
  w.u16(peer.is_v4() ? kAfiIpv4 : kAfiIpv6);
  write_address(w, peer);
  write_address(w, local);
}

struct Bgp4mpHeader {
  bgp::Asn peer_asn;
  bgp::Asn local_asn;
  IpAddress peer;
  IpAddress local;
};

Bgp4mpHeader read_bgp4mp_header(ByteReader& r) {
  Bgp4mpHeader h;
  h.peer_asn = r.u32();
  h.local_asn = r.u32();
  r.u16();  // interface index
  const std::uint16_t afi = r.u16();
  if (afi != kAfiIpv4 && afi != kAfiIpv6) throw DecodeError("BGP4MP: bad AFI");
  const AddressFamily family = afi == kAfiIpv4 ? AddressFamily::kIpv4 : AddressFamily::kIpv6;
  h.peer = read_address(r, family);
  h.local = read_address(r, family);
  return h;
}

// TABLE_DUMP_V2 RIB entries serialize attributes without NLRI; the
// MP_REACH_NLRI attribute is abbreviated to just the next hop
// (RFC 6396 §4.3.4).
std::vector<std::uint8_t> encode_rib_attributes(const bgp::PathAttributes& attrs,
                                                AddressFamily family) {
  ByteWriter w;
  w.u8(bgp::kAttrFlagTransitive);
  w.u8(static_cast<std::uint8_t>(bgp::AttrType::kOrigin));
  w.u8(1);
  w.u8(static_cast<std::uint8_t>(attrs.origin));

  bgp::wire::write_attribute(w, bgp::kAttrFlagTransitive, bgp::AttrType::kAsPath,
                             bgp::wire::encode_as_path(attrs.as_path));

  if (family == AddressFamily::kIpv4) {
    const IpAddress nh = attrs.next_hop.value_or(IpAddress::v4(0u));
    if (!nh.is_v4()) throw DecodeError("RIB v4 entry requires IPv4 next hop");
    w.u8(bgp::kAttrFlagTransitive);
    w.u8(static_cast<std::uint8_t>(bgp::AttrType::kNextHop));
    w.u8(4);
    w.bytes(std::span<const std::uint8_t>(nh.bytes().data(), 4));
  } else {
    std::array<std::uint8_t, 16> zero{};
    const IpAddress nh = attrs.next_hop.value_or(IpAddress::v6(zero));
    if (!nh.is_v6()) throw DecodeError("RIB v6 entry requires IPv6 next hop");
    ByteWriter mp;
    mp.u8(16);
    mp.bytes(std::span<const std::uint8_t>(nh.bytes().data(), 16));
    bgp::wire::write_attribute(w, bgp::kAttrFlagOptional, bgp::AttrType::kMpReachNlri,
                               mp.data());
  }
  if (attrs.med) {
    w.u8(bgp::kAttrFlagOptional);
    w.u8(static_cast<std::uint8_t>(bgp::AttrType::kMultiExitDisc));
    w.u8(4);
    w.u32(*attrs.med);
  }
  if (attrs.local_pref) {
    w.u8(bgp::kAttrFlagTransitive);
    w.u8(static_cast<std::uint8_t>(bgp::AttrType::kLocalPref));
    w.u8(4);
    w.u32(*attrs.local_pref);
  }
  if (attrs.atomic_aggregate) {
    w.u8(bgp::kAttrFlagTransitive);
    w.u8(static_cast<std::uint8_t>(bgp::AttrType::kAtomicAggregate));
    w.u8(0);
  }
  if (attrs.aggregator) {
    w.u8(bgp::kAttrFlagOptional | bgp::kAttrFlagTransitive);
    w.u8(static_cast<std::uint8_t>(bgp::AttrType::kAggregator));
    w.u8(8);
    w.u32(attrs.aggregator->asn);
    w.bytes(std::span<const std::uint8_t>(attrs.aggregator->address.bytes().data(), 4));
  }
  if (!attrs.communities.empty()) {
    ByteWriter cw;
    for (const auto& c : attrs.communities) cw.u32(c.value());
    bgp::wire::write_attribute(w, bgp::kAttrFlagOptional | bgp::kAttrFlagTransitive,
                               bgp::AttrType::kCommunities, cw.data());
  }
  for (const auto& raw : attrs.unknown) {
    bgp::wire::write_attribute(w, raw.flags, static_cast<bgp::AttrType>(raw.type),
                               raw.payload);
  }
  return w.take();
}

bgp::PathAttributes decode_rib_attributes(ByteReader r, bgp::AsPathInterner& paths) {
  bgp::PathAttributes attrs;
  while (!r.done()) {
    const std::uint8_t flags = r.u8();
    const std::uint8_t type_code = r.u8();
    const std::size_t len = (flags & bgp::kAttrFlagExtendedLength) ? r.u16() : r.u8();
    ByteReader pr = r.sub(len);
    switch (static_cast<bgp::AttrType>(type_code)) {
      case bgp::AttrType::kOrigin: {
        const std::uint8_t v = pr.u8();
        if (v > 2) throw DecodeError("RIB ORIGIN: bad value");
        attrs.origin = static_cast<bgp::Origin>(v);
        break;
      }
      case bgp::AttrType::kAsPath:
        attrs.as_path = paths.decode(pr.bytes(pr.remaining()));
        break;
      case bgp::AttrType::kNextHop: {
        auto raw = pr.bytes(4);
        attrs.next_hop = IpAddress::v4({raw[0], raw[1], raw[2], raw[3]});
        break;
      }
      case bgp::AttrType::kMultiExitDisc:
        attrs.med = pr.u32();
        break;
      case bgp::AttrType::kLocalPref:
        attrs.local_pref = pr.u32();
        break;
      case bgp::AttrType::kAtomicAggregate:
        attrs.atomic_aggregate = true;
        break;
      case bgp::AttrType::kAggregator: {
        bgp::Aggregator agg;
        agg.asn = pr.u32();
        auto raw = pr.bytes(4);
        agg.address = IpAddress::v4({raw[0], raw[1], raw[2], raw[3]});
        attrs.aggregator = agg;
        break;
      }
      case bgp::AttrType::kCommunities:
        while (!pr.done())
          attrs.communities.push_back(bgp::Community::from_value(pr.u32()));
        break;
      case bgp::AttrType::kMpReachNlri: {
        // Abbreviated form: next-hop length + next hop only.
        const std::uint8_t nh_len = pr.u8();
        if (nh_len != 16 && nh_len != 32)
          throw DecodeError("RIB MP_REACH: bad next-hop length");
        auto raw = pr.bytes(nh_len);
        std::array<std::uint8_t, 16> nh{};
        std::copy(raw.begin(), raw.begin() + 16, nh.begin());
        attrs.next_hop = IpAddress::v6(nh);
        pr = ByteReader({});
        break;
      }
      default: {
        bgp::RawAttribute raw;
        raw.flags = flags;
        raw.type = type_code;
        auto payload = pr.bytes(pr.remaining());
        raw.payload.assign(payload.begin(), payload.end());
        attrs.unknown.push_back(std::move(raw));
        break;
      }
    }
    pr.expect_done("RIB path attribute");
  }
  return attrs;
}

std::vector<std::uint8_t> encode_body(const Bgp4mpMessage& m) {
  ByteWriter w;
  write_bgp4mp_header(w, m.peer_asn, m.local_asn, m.peer_address, m.local_address);
  std::vector<std::uint8_t> body = w.take();
  m.update.encode_into(body);
  return body;
}

std::vector<std::uint8_t> encode_body(const Bgp4mpStateChange& s) {
  ByteWriter w;
  write_bgp4mp_header(w, s.peer_asn, s.local_asn, s.peer_address, s.local_address);
  w.u16(static_cast<std::uint16_t>(s.old_state));
  w.u16(static_cast<std::uint16_t>(s.new_state));
  return w.take();
}

std::vector<std::uint8_t> encode_body(const PeerIndexTable& t) {
  ByteWriter w;
  w.u32(t.collector_bgp_id);
  w.u16(static_cast<std::uint16_t>(t.view_name.size()));
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(t.view_name.data()), t.view_name.size()));
  w.u16(static_cast<std::uint16_t>(t.peers.size()));
  for (const auto& peer : t.peers) {
    // Peer type bit 0: address family; bit 1: AS size. Always AS4 here.
    const std::uint8_t type = static_cast<std::uint8_t>(0x02 | (peer.address.is_v6() ? 0x01 : 0x00));
    w.u8(type);
    w.u32(peer.bgp_id);
    write_address(w, peer.address);
    w.u32(peer.asn);
  }
  return w.take();
}

std::vector<std::uint8_t> encode_body(const RibEntryRecord& rib) {
  ByteWriter w;
  w.u32(rib.sequence);
  w.u8(static_cast<std::uint8_t>(rib.prefix.length()));
  const int nbytes = (rib.prefix.length() + 7) / 8;
  w.bytes(std::span<const std::uint8_t>(rib.prefix.address().bytes().data(),
                                        static_cast<std::size_t>(nbytes)));
  w.u16(static_cast<std::uint16_t>(rib.entries.size()));
  for (const auto& entry : rib.entries) {
    w.u16(entry.peer_index);
    w.u32(static_cast<std::uint32_t>(entry.originated_time));
    auto attrs = encode_rib_attributes(entry.attributes, rib.prefix.family());
    w.u16(static_cast<std::uint16_t>(attrs.size()));
    w.bytes(attrs);
  }
  return w.take();
}

}  // namespace

void MrtWriter::write(const MrtRecord& record) {
  std::visit(
      [&](const auto& rec) {
        using T = std::decay_t<decltype(rec)>;
        std::vector<std::uint8_t> body = encode_body(rec);
        RecordType type;
        std::uint16_t subtype;
        if constexpr (std::is_same_v<T, Bgp4mpMessage>) {
          type = RecordType::kBgp4mp;
          subtype = static_cast<std::uint16_t>(Bgp4mpSubtype::kMessageAs4);
        } else if constexpr (std::is_same_v<T, Bgp4mpStateChange>) {
          type = RecordType::kBgp4mp;
          subtype = static_cast<std::uint16_t>(Bgp4mpSubtype::kStateChangeAs4);
        } else if constexpr (std::is_same_v<T, PeerIndexTable>) {
          type = RecordType::kTableDumpV2;
          subtype = static_cast<std::uint16_t>(TableDumpV2Subtype::kPeerIndexTable);
        } else {
          type = RecordType::kTableDumpV2;
          subtype = static_cast<std::uint16_t>(
              rec.prefix.is_v4() ? TableDumpV2Subtype::kRibIpv4Unicast
                                 : TableDumpV2Subtype::kRibIpv6Unicast);
        }
        write_common_header(out_, record_timestamp(record), type, subtype,
                            static_cast<std::uint32_t>(body.size()));
        out_.bytes(body);
        CodecMetrics& metrics = codec_metrics();
        metrics.records_encoded.inc();
        metrics.encoded_by_type[record.index()].inc();
        metrics.bytes_encoded.inc(12 + body.size());
        metrics.record_bytes.observe(static_cast<double>(12 + body.size()));
      },
      record);
}

MrtRecord MrtReader::next() {
  const auto timestamp = static_cast<netbase::TimePoint>(reader_.u32());
  const auto type = static_cast<RecordType>(reader_.u16());
  const std::uint16_t subtype = reader_.u16();
  const std::uint32_t length = reader_.u32();
  ByteReader body = reader_.sub(length);

  MrtRecord record = [&]() -> MrtRecord {
  if (type == RecordType::kBgp4mp) {
    switch (static_cast<Bgp4mpSubtype>(subtype)) {
      case Bgp4mpSubtype::kMessageAs4: {
        Bgp4mpMessage m;
        m.timestamp = timestamp;
        auto h = read_bgp4mp_header(body);
        m.peer_asn = h.peer_asn;
        m.local_asn = h.local_asn;
        m.peer_address = h.peer;
        m.local_address = h.local;
        m.update = bgp::UpdateMessage::decode(body.bytes(body.remaining()), &paths_);
        return m;
      }
      case Bgp4mpSubtype::kStateChangeAs4: {
        Bgp4mpStateChange s;
        s.timestamp = timestamp;
        auto h = read_bgp4mp_header(body);
        s.peer_asn = h.peer_asn;
        s.local_asn = h.local_asn;
        s.peer_address = h.peer;
        s.local_address = h.local;
        s.old_state = static_cast<bgp::SessionState>(body.u16());
        s.new_state = static_cast<bgp::SessionState>(body.u16());
        body.expect_done("BGP4MP_STATE_CHANGE_AS4");
        return s;
      }
      default:
        throw DecodeError("unsupported BGP4MP subtype " + std::to_string(subtype));
    }
  }
  if (type == RecordType::kTableDumpV2) {
    switch (static_cast<TableDumpV2Subtype>(subtype)) {
      case TableDumpV2Subtype::kPeerIndexTable: {
        PeerIndexTable t;
        t.timestamp = timestamp;
        t.collector_bgp_id = body.u32();
        const std::uint16_t name_len = body.u16();
        auto name = body.bytes(name_len);
        t.view_name.assign(name.begin(), name.end());
        const std::uint16_t count = body.u16();
        t.peers.reserve(count);
        for (int i = 0; i < count; ++i) {
          const std::uint8_t peer_type = body.u8();
          PeerIndexTable::Peer peer;
          peer.bgp_id = body.u32();
          peer.address = read_address(
              body, (peer_type & 0x01) ? AddressFamily::kIpv6 : AddressFamily::kIpv4);
          peer.asn = (peer_type & 0x02) ? body.u32() : body.u16();
          t.peers.push_back(peer);
        }
        body.expect_done("PEER_INDEX_TABLE");
        return t;
      }
      case TableDumpV2Subtype::kRibIpv4Unicast:
      case TableDumpV2Subtype::kRibIpv6Unicast: {
        const AddressFamily family =
            static_cast<TableDumpV2Subtype>(subtype) == TableDumpV2Subtype::kRibIpv4Unicast
                ? AddressFamily::kIpv4
                : AddressFamily::kIpv6;
        RibEntryRecord rib;
        rib.timestamp = timestamp;
        rib.sequence = body.u32();
        const int plen = body.u8();
        const int max_len = family == AddressFamily::kIpv4 ? 32 : 128;
        if (plen > max_len) throw DecodeError("RIB: prefix length out of range");
        auto raw = body.bytes(static_cast<std::size_t>((plen + 7) / 8));
        std::array<std::uint8_t, 16> bytes{};
        std::copy(raw.begin(), raw.end(), bytes.begin());
        IpAddress addr = family == AddressFamily::kIpv4
                             ? IpAddress::v4({bytes[0], bytes[1], bytes[2], bytes[3]})
                             : IpAddress::v6(bytes);
        rib.prefix = Prefix(addr, plen);
        const std::uint16_t count = body.u16();
        rib.entries.reserve(count);
        for (int i = 0; i < count; ++i) {
          RibEntryRecord::Entry entry;
          entry.peer_index = body.u16();
          entry.originated_time = static_cast<netbase::TimePoint>(body.u32());
          const std::uint16_t attr_len = body.u16();
          entry.attributes = decode_rib_attributes(body.sub(attr_len), paths_);
          rib.entries.push_back(std::move(entry));
        }
        body.expect_done("RIB entry record");
        return rib;
      }
      default:
        throw DecodeError("unsupported TABLE_DUMP_V2 subtype " + std::to_string(subtype));
    }
  }
  throw DecodeError("unsupported MRT type " + std::to_string(static_cast<int>(type)));
  }();

  CodecMetrics& metrics = codec_metrics();
  metrics.records_decoded.inc();
  metrics.decoded_by_type[record.index()].inc();
  metrics.bytes_decoded.inc(12 + length);
  metrics.record_bytes.observe(12.0 + length);
  return record;
}

std::vector<MrtRecord> decode_all(std::span<const std::uint8_t> data) {
  // Count the records from their 12-byte common headers (a truncated
  // tail is left for the decode to reject), then reserve that many,
  // capped at one per 64 input bytes. A real archive averages well
  // over 64 bytes a record, so the cap binds only on hostile input,
  // where the vector just grows as usual past it.
  std::size_t records = 0;
  for (std::size_t at = 0; data.size() - at >= 12; ++records) {
    const std::uint32_t length = ByteReader(data.subspan(at + 8, 4)).u32();
    if (data.size() - at - 12 < length) break;
    at += 12 + length;
  }
  std::vector<MrtRecord> out;
  out.reserve(std::min(records, data.size() / 64));
  MrtReader reader(data);
  while (reader.has_next()) out.push_back(reader.next());
  return out;
}

std::vector<std::uint8_t> encode_all(std::span<const MrtRecord> records) {
  MrtWriter writer;
  for (const auto& record : records) writer.write(record);
  return writer.take();
}

void write_file(const std::string& path, std::span<const MrtRecord> records) {
  const auto bytes = encode_all(records);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("short write to " + path);
}

std::vector<MrtRecord> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  // A regular file fits its buffer and reaches EOF in one read; a pipe
  // or device has no size, so its buffer doubles until EOF.
  std::error_code no_size;
  const std::uintmax_t size = std::filesystem::file_size(path, no_size);
  std::vector<std::uint8_t> bytes(no_size ? std::size_t{1} << 16 : size + 1);
  std::size_t filled = 0;
  while (true) {
    in.read(reinterpret_cast<char*>(bytes.data() + filled),
            static_cast<std::streamsize>(bytes.size() - filled));
    filled += static_cast<std::size_t>(in.gcount());
    if (in.bad()) throw std::runtime_error("cannot read " + path);
    if (in.eof()) break;
    bytes.resize(2 * bytes.size());
  }
  bytes.resize(filled);
  return decode_all(bytes);
}

}  // namespace zombiescope::mrt
