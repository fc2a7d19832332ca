// Unit and property tests for the bgp module: AS paths, attributes,
// and the RFC 4271/4760/6793 UPDATE wire codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "bgp/update.hpp"
#include "netbase/rng.hpp"

namespace zombiescope::bgp {
namespace {

using netbase::IpAddress;
using netbase::Prefix;
using netbase::Rng;

TEST(AsPath, SequenceBasics) {
  AsPath p{4637, 1299, 25091, 8298, 210312};
  EXPECT_EQ(p.length(), 5);
  EXPECT_EQ(p.asn_count(), 5);
  EXPECT_EQ(p.origin_asn(), 210312u);
  EXPECT_EQ(p.first_asn(), 4637u);
  EXPECT_TRUE(p.contains(1299));
  EXPECT_FALSE(p.contains(6939));
  EXPECT_EQ(p.to_string(), "4637 1299 25091 8298 210312");
}

TEST(AsPath, SetCountsOnceForLength) {
  const std::vector<Asn> sequence{100, 200};
  const std::vector<Asn> set{300, 400, 500};
  const AsPath p = AsPath::from_segments(
      {{SegmentType::kAsSequence, sequence}, {SegmentType::kAsSet, set}});
  EXPECT_EQ(p.length(), 3);  // 2 + 1 for the set
  EXPECT_EQ(p.asn_count(), 5);
  EXPECT_EQ(p.to_string(), "100 200 {300,400,500}");
  EXPECT_FALSE(p.origin_asn().has_value());  // path ends with a set
}

TEST(AsPath, PrependMergesIntoLeadingSequence) {
  AsPath p{200, 300};
  AsPath q = p.prepend(100);
  EXPECT_EQ(q.to_string(), "100 200 300");
  EXPECT_EQ(q.segments().size(), 1u);

  AsPath empty;
  EXPECT_EQ(empty.prepend(65000).to_string(), "65000");
}

TEST(AsPath, EndsWithSuffix) {
  AsPath p{4637, 1299, 25091, 8298, 210312};
  EXPECT_TRUE(p.ends_with({25091, 8298, 210312}));
  EXPECT_TRUE(p.ends_with({210312}));
  EXPECT_TRUE(p.ends_with({}));
  EXPECT_FALSE(p.ends_with({8298, 25091, 210312}));
  EXPECT_FALSE(p.ends_with({1, 2, 3, 4, 5, 6}));
}

TEST(AsPath, CopyMoveAndSelfAssignmentKeepTheValue) {
  AsPath p{4637, 1299, 210312};
  AsPath q = p;
  const AsPath& same = q;
  q = same;  // self-assignment keeps the path
  EXPECT_EQ(q, p);
  EXPECT_EQ(q.to_string(), "4637 1299 210312");
  AsPath r = std::move(q);
  q = AsPath{};
  EXPECT_TRUE(q.empty());
  p = AsPath{};  // r holds the last reference now
  EXPECT_EQ(r.to_string(), "4637 1299 210312");
  EXPECT_NE(r, p);
}

TEST(AsPath, FourByteAsnsSurvive) {
  AsPath p{210312, 4200000001};
  EXPECT_TRUE(p.contains(4200000001));
}

TEST(Community, Rendering) {
  Community c{65535, 666};
  EXPECT_EQ(c.to_string(), "65535:666");
  EXPECT_EQ(Community::from_value(c.value()), c);
}

UpdateMessage make_v6_announcement() {
  UpdateMessage msg;
  msg.announced.push_back(Prefix::parse("2a0d:3dc1:1851::/48"));
  msg.attributes.origin = Origin::kIgp;
  msg.attributes.as_path = AsPath{61573, 28598, 10429, 12956, 3356, 34549, 8298, 210312};
  msg.attributes.next_hop = IpAddress::parse("2001:db8:ffff::1");
  msg.attributes.local_pref = 100;
  msg.attributes.communities = {{8298, 100}, {8298, 20}};
  return msg;
}

TEST(UpdateCodec, V6AnnouncementRoundTrip) {
  UpdateMessage msg = make_v6_announcement();
  auto wire = msg.encode();
  // Header sanity: marker + declared length.
  ASSERT_GE(wire.size(), 19u);
  EXPECT_EQ(wire[0], 0xff);
  EXPECT_EQ(wire[15], 0xff);
  EXPECT_EQ((wire[16] << 8) | wire[17], static_cast<int>(wire.size()));
  EXPECT_EQ(wire[18], 2);  // UPDATE

  UpdateMessage decoded = UpdateMessage::decode(wire);
  EXPECT_EQ(decoded, msg);
}

TEST(UpdateCodec, V4AnnouncementWithAggregatorRoundTrip) {
  UpdateMessage msg;
  msg.announced.push_back(Prefix::parse("84.205.71.0/24"));
  msg.attributes.as_path = AsPath{12654};
  msg.attributes.next_hop = IpAddress::parse("193.0.4.28");
  msg.attributes.origin = Origin::kIgp;
  msg.attributes.aggregator = Aggregator{12654, IpAddress::parse("10.19.29.192")};
  msg.attributes.med = 17;
  msg.attributes.atomic_aggregate = true;

  UpdateMessage decoded = UpdateMessage::decode(msg.encode());
  EXPECT_EQ(decoded, msg);
  ASSERT_TRUE(decoded.attributes.aggregator.has_value());
  EXPECT_EQ(decoded.attributes.aggregator->address.to_string(), "10.19.29.192");
}

TEST(UpdateCodec, V4WithdrawalOnly) {
  UpdateMessage msg;
  msg.withdrawn.push_back(Prefix::parse("84.205.71.0/24"));
  msg.withdrawn.push_back(Prefix::parse("93.175.149.0/24"));
  UpdateMessage decoded = UpdateMessage::decode(msg.encode());
  EXPECT_EQ(decoded, msg);
  EXPECT_TRUE(decoded.is_withdrawal_only());
}

TEST(UpdateCodec, V6WithdrawalTravelsInMpUnreach) {
  UpdateMessage msg;
  msg.withdrawn.push_back(Prefix::parse("2a0d:3dc1:163::/48"));
  UpdateMessage decoded = UpdateMessage::decode(msg.encode());
  EXPECT_EQ(decoded.withdrawn, msg.withdrawn);
  EXPECT_TRUE(decoded.is_withdrawal_only());
}

TEST(UpdateCodec, MixedFamilyUpdate) {
  UpdateMessage msg;
  msg.announced.push_back(Prefix::parse("84.205.71.0/24"));
  msg.announced.push_back(Prefix::parse("2001:7fb:fe00::/48"));
  msg.withdrawn.push_back(Prefix::parse("84.205.77.0/24"));
  msg.withdrawn.push_back(Prefix::parse("2001:7fb:fe06::/48"));
  msg.attributes.as_path = AsPath{12654};
  // Encoder requirement: a v6 next hop must be supplied when v6 NLRI is
  // present; the v4 NEXT_HOP attribute then cannot also be expressed.
  msg.attributes.next_hop = IpAddress::parse("2001:db8::1");
  UpdateMessage decoded = UpdateMessage::decode(msg.encode());
  // Round trip preserves the full prefix sets (order may regroup by family).
  EXPECT_EQ(decoded.announced.size(), 2u);
  EXPECT_EQ(decoded.withdrawn.size(), 2u);
}

TEST(UpdateCodec, EmptyPathIsLegalForOriginatedRoute) {
  UpdateMessage msg;
  msg.announced.push_back(Prefix::parse("10.0.0.0/8"));
  msg.attributes.next_hop = IpAddress::parse("192.0.2.1");
  UpdateMessage decoded = UpdateMessage::decode(msg.encode());
  EXPECT_TRUE(decoded.attributes.as_path.empty());
}

TEST(UpdateCodec, UnknownAttributePreserved) {
  UpdateMessage msg;
  msg.announced.push_back(Prefix::parse("10.0.0.0/8"));
  msg.attributes.next_hop = IpAddress::parse("192.0.2.1");
  msg.attributes.unknown.push_back(
      RawAttribute{static_cast<std::uint8_t>(kAttrFlagOptional | kAttrFlagTransitive), 32,
                   {1, 2, 3, 4}});  // LARGE_COMMUNITY blob
  UpdateMessage decoded = UpdateMessage::decode(msg.encode());
  EXPECT_EQ(decoded, msg);
}

TEST(UpdateCodec, RejectsGarbage) {
  std::vector<std::uint8_t> junk(19, 0x00);
  EXPECT_THROW(UpdateMessage::decode(junk), netbase::DecodeError);

  UpdateMessage msg = make_v6_announcement();
  auto wire = msg.encode();
  wire.pop_back();  // truncate
  EXPECT_THROW(UpdateMessage::decode(wire), netbase::DecodeError);

  wire = msg.encode();
  wire[18] = 4;  // claim KEEPALIVE
  EXPECT_THROW(UpdateMessage::decode(wire), netbase::DecodeError);
}

TEST(UpdateCodec, LargeCommunityListUsesExtendedLength) {
  UpdateMessage msg;
  msg.announced.push_back(Prefix::parse("10.0.0.0/8"));
  msg.attributes.next_hop = IpAddress::parse("192.0.2.1");
  for (std::uint16_t i = 0; i < 100; ++i) msg.attributes.communities.push_back({8298, i});
  UpdateMessage decoded = UpdateMessage::decode(msg.encode());
  EXPECT_EQ(decoded.attributes.communities.size(), 100u);
  EXPECT_EQ(decoded, msg);
}

std::vector<Asn> numbered_asns(std::size_t n) {
  std::vector<Asn> asns;
  for (std::size_t i = 0; i < n; ++i) asns.push_back(static_cast<Asn>(64512 + i));
  return asns;
}

UpdateMessage announce_with_path(const AsPath& path) {
  UpdateMessage msg;
  msg.announced.push_back(Prefix::parse("10.0.0.0/8"));
  msg.attributes.next_hop = IpAddress::parse("192.0.2.1");
  msg.attributes.as_path = path;
  return msg;
}

TEST(UpdateCodec, SequenceLongerThan255AsnsRoundTrips) {
  // A segment's ASN count is one byte on the wire: 300 ASNs travel as
  // a 255-ASN and a 45-ASN AS_SEQUENCE (RFC 4271 §5.1.2).
  const auto asns = numbered_asns(300);
  const AsPath path = AsPath::sequence(asns);
  EXPECT_EQ(path.segments().size(), 2u);
  EXPECT_EQ(path.length(), 300);
  EXPECT_EQ(path.flatten(), asns);
  const UpdateMessage msg = announce_with_path(path);
  const UpdateMessage decoded = UpdateMessage::decode(msg.encode());
  EXPECT_EQ(decoded, msg);
  EXPECT_EQ(decoded.attributes.as_path.to_string(), path.to_string());
}

TEST(UpdateCodec, PrependOntoFullSequenceRoundTrips) {
  // Prepending to a full 255-ASN sequence opens a new leading segment.
  const AsPath path = AsPath::sequence(numbered_asns(255)).prepend(64000);
  EXPECT_EQ(path.segments().size(), 2u);
  EXPECT_EQ(path.length(), 256);
  EXPECT_EQ(path.first_asn(), 64000u);
  EXPECT_EQ(path.origin_asn(), static_cast<Asn>(64512 + 254));
  const UpdateMessage msg = announce_with_path(path);
  const UpdateMessage decoded = UpdateMessage::decode(msg.encode());
  EXPECT_EQ(decoded, msg);
  EXPECT_EQ(decoded.attributes.as_path.length(), 256);
}

// One UPDATE that takes every branch of the encoder: withdrawals and
// NLRI of both families, every interpreted attribute, a 300-ASN path
// (two segments, an extended length), an unknown attribute over 255
// bytes and a short one that arrived with a stray extended-length flag.
UpdateMessage every_branch_update() {
  UpdateMessage msg;
  msg.withdrawn = {Prefix::parse("84.205.77.0/24"), Prefix::parse("2001:7fb:fe06::/48"),
                   Prefix::parse("10.0.0.0/8"), Prefix::parse("2a0d:3dc1:163::/48")};
  msg.announced = {Prefix::parse("84.205.71.0/24"), Prefix::parse("2a0d:3dc1:1851::/48"),
                   Prefix::parse("93.175.149.0/25"), Prefix::parse("2001:7fb:fe00::/47")};
  msg.attributes.origin = Origin::kIncomplete;
  msg.attributes.as_path = AsPath::sequence(numbered_asns(300));
  msg.attributes.next_hop = IpAddress::parse("192.0.2.1");
  msg.attributes.med = 17;
  msg.attributes.local_pref = 200;
  msg.attributes.atomic_aggregate = true;
  msg.attributes.aggregator = Aggregator{12654, IpAddress::parse("10.19.29.192")};
  msg.attributes.communities = {{8298, 100}, {65535, 666}};
  RawAttribute blob{kAttrFlagOptional | kAttrFlagTransitive, 32, {}};
  for (int i = 0; i < 256; ++i) blob.payload.push_back(static_cast<std::uint8_t>(i * 7));
  msg.attributes.unknown.push_back(blob);
  msg.attributes.unknown.push_back(
      RawAttribute{kAttrFlagOptional | kAttrFlagExtendedLength, 99, {1, 2, 3}});
  return msg;
}

// every_branch_update() on the wire, pinned: a change here is a change
// to every archive and every BGP session.
constexpr std::string_view kEveryBranchWire =
    "ffffffffffffffffffffffffffffffff06540200061854cd4d080a062e40010102500204"
    "b402ff0000fc000000fc010000fc020000fc030000fc040000fc050000fc060000fc0700"
    "00fc080000fc090000fc0a0000fc0b0000fc0c0000fc0d0000fc0e0000fc0f0000fc1000"
    "00fc110000fc120000fc130000fc140000fc150000fc160000fc170000fc180000fc1900"
    "00fc1a0000fc1b0000fc1c0000fc1d0000fc1e0000fc1f0000fc200000fc210000fc2200"
    "00fc230000fc240000fc250000fc260000fc270000fc280000fc290000fc2a0000fc2b00"
    "00fc2c0000fc2d0000fc2e0000fc2f0000fc300000fc310000fc320000fc330000fc3400"
    "00fc350000fc360000fc370000fc380000fc390000fc3a0000fc3b0000fc3c0000fc3d00"
    "00fc3e0000fc3f0000fc400000fc410000fc420000fc430000fc440000fc450000fc4600"
    "00fc470000fc480000fc490000fc4a0000fc4b0000fc4c0000fc4d0000fc4e0000fc4f00"
    "00fc500000fc510000fc520000fc530000fc540000fc550000fc560000fc570000fc5800"
    "00fc590000fc5a0000fc5b0000fc5c0000fc5d0000fc5e0000fc5f0000fc600000fc6100"
    "00fc620000fc630000fc640000fc650000fc660000fc670000fc680000fc690000fc6a00"
    "00fc6b0000fc6c0000fc6d0000fc6e0000fc6f0000fc700000fc710000fc720000fc7300"
    "00fc740000fc750000fc760000fc770000fc780000fc790000fc7a0000fc7b0000fc7c00"
    "00fc7d0000fc7e0000fc7f0000fc800000fc810000fc820000fc830000fc840000fc8500"
    "00fc860000fc870000fc880000fc890000fc8a0000fc8b0000fc8c0000fc8d0000fc8e00"
    "00fc8f0000fc900000fc910000fc920000fc930000fc940000fc950000fc960000fc9700"
    "00fc980000fc990000fc9a0000fc9b0000fc9c0000fc9d0000fc9e0000fc9f0000fca000"
    "00fca10000fca20000fca30000fca40000fca50000fca60000fca70000fca80000fca900"
    "00fcaa0000fcab0000fcac0000fcad0000fcae0000fcaf0000fcb00000fcb10000fcb200"
    "00fcb30000fcb40000fcb50000fcb60000fcb70000fcb80000fcb90000fcba0000fcbb00"
    "00fcbc0000fcbd0000fcbe0000fcbf0000fcc00000fcc10000fcc20000fcc30000fcc400"
    "00fcc50000fcc60000fcc70000fcc80000fcc90000fcca0000fccb0000fccc0000fccd00"
    "00fcce0000fccf0000fcd00000fcd10000fcd20000fcd30000fcd40000fcd50000fcd600"
    "00fcd70000fcd80000fcd90000fcda0000fcdb0000fcdc0000fcdd0000fcde0000fcdf00"
    "00fce00000fce10000fce20000fce30000fce40000fce50000fce60000fce70000fce800"
    "00fce90000fcea0000fceb0000fcec0000fced0000fcee0000fcef0000fcf00000fcf100"
    "00fcf20000fcf30000fcf40000fcf50000fcf60000fcf70000fcf80000fcf90000fcfa00"
    "00fcfb0000fcfc0000fcfd0000fcfe022d0000fcff0000fd000000fd010000fd020000fd"
    "030000fd040000fd050000fd060000fd070000fd080000fd090000fd0a0000fd0b0000fd"
    "0c0000fd0d0000fd0e0000fd0f0000fd100000fd110000fd120000fd130000fd140000fd"
    "150000fd160000fd170000fd180000fd190000fd1a0000fd1b0000fd1c0000fd1d0000fd"
    "1e0000fd1f0000fd200000fd210000fd220000fd230000fd240000fd250000fd260000fd"
    "270000fd280000fd290000fd2a0000fd2b400304c0000201800404000000114005040000"
    "00c8400600c007080000316e0a131dc0c00808206a0064ffff029a800e23000201100000"
    "000000000000000000000000000000302a0d3dc118512f200107fbfe00800f1100020130"
    "200107fbfe06302a0d3dc10163d020010000070e151c232a31383f464d545b626970777e"
    "858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a"
    "81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f76"
    "7d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b72"
    "7980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e"
    "757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a"
    "71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f66"
    "6d747b828990979ea5acb3bac1c8cfd6dde4ebf2f98063030102031854cd47195daf9500";

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  return out;
}

TEST(UpdateCodec, EveryBranchEncodesToPinnedBytes) {
  const UpdateMessage msg = every_branch_update();
  const std::vector<std::uint8_t> pinned = from_hex(kEveryBranchWire);
  ASSERT_EQ(pinned.size(), 1620u);
  EXPECT_EQ(msg.encode(), pinned);

  // encode_into appends exactly those bytes after what the buffer holds.
  const std::vector<std::uint8_t> before = {1, 2, 3};
  std::vector<std::uint8_t> out = before;
  msg.encode_into(out);
  ASSERT_EQ(out.size(), before.size() + pinned.size());
  EXPECT_TRUE(std::equal(before.begin(), before.end(), out.begin()));
  EXPECT_TRUE(std::equal(pinned.begin(), pinned.end(), out.begin() + 3));

  // An extra attribute lands after attributes.unknown: where
  // wire::stamp_update pushes the bridge stamp (attr 254).
  const RawAttribute stamp{0xc0, 254, std::vector<std::uint8_t>(16, 0x5a)};
  UpdateMessage stamped = msg;
  stamped.attributes.unknown.push_back(stamp);
  std::vector<std::uint8_t> with_extra;
  msg.encode_into(with_extra, std::span<const RawAttribute>(&stamp, 1));
  EXPECT_EQ(with_extra, stamped.encode());
  EXPECT_EQ(with_extra.size(), pinned.size() + 3 + 16);
}

UpdateMessage withdraw_v4_24s(std::size_t count) {
  UpdateMessage msg;
  for (std::size_t i = 0; i < count; ++i)
    msg.withdrawn.emplace_back(IpAddress::v4(static_cast<std::uint32_t>(0x0a000000 + (i << 8))),
                               24);
  return msg;
}

TEST(UpdateCodec, MessageOverItsLengthFieldThrowsAndLeavesTheBuffer) {
  // 20,000 withdrawn /24s take 80,023 bytes, which the 16-bit length
  // field cannot state: the encoder refuses rather than wrap it.
  const UpdateMessage msg = withdraw_v4_24s(20000);
  EXPECT_THROW(msg.encode(), netbase::DecodeError);
  const std::vector<std::uint8_t> before = {7, 8, 9};
  std::vector<std::uint8_t> out = before;
  EXPECT_THROW(msg.encode_into(out), netbase::DecodeError);
  EXPECT_EQ(out, before);
}

TEST(UpdateCodec, MessageOfExactly65535BytesRoundTrips) {
  // 23 bytes of header and length fields, then 16,378 four-byte /24s.
  UpdateMessage msg = withdraw_v4_24s(16378);
  const auto wire = msg.encode();
  ASSERT_EQ(wire.size(), 65535u);
  EXPECT_EQ(UpdateMessage::decode(wire), msg);
  // One byte more (a /0 is a lone length byte) is over.
  msg.withdrawn.emplace_back(IpAddress::v4(0u), 0);
  EXPECT_THROW(msg.encode(), netbase::DecodeError);
}

// Property: encode/decode round trip over randomized updates.
class UpdateRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UpdateRoundTrip, RandomizedMessages) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    UpdateMessage msg;
    const bool v6 = rng.chance(0.5);
    const bool announce = rng.chance(0.7);
    const int prefix_count = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < prefix_count; ++i) {
      std::array<std::uint8_t, 16> bytes{};
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      IpAddress addr = v6 ? IpAddress::v6(bytes)
                          : IpAddress::v4({bytes[0], bytes[1], bytes[2], bytes[3]});
      Prefix p(addr, static_cast<int>(rng.uniform_int(8, addr.bit_length())));
      (announce ? msg.announced : msg.withdrawn).push_back(p);
    }
    if (announce) {
      const int hops = static_cast<int>(rng.uniform_int(1, 9));
      std::vector<Asn> asns;
      for (int i = 0; i < hops; ++i)
        asns.push_back(static_cast<Asn>(rng.uniform_int(1, 4294967295LL)));
      msg.attributes.as_path = AsPath::sequence(asns);
      msg.attributes.next_hop =
          v6 ? IpAddress::parse("2001:db8::1") : IpAddress::parse("192.0.2.1");
      if (rng.chance(0.3)) msg.attributes.med = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
      if (rng.chance(0.3))
        msg.attributes.local_pref = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
      if (rng.chance(0.3))
        msg.attributes.aggregator =
            Aggregator{static_cast<Asn>(rng.uniform_int(1, 65000)),
                       IpAddress::v4(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL)))};
      const int ncomm = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < ncomm; ++i)
        msg.attributes.communities.push_back(
            {static_cast<std::uint16_t>(rng.uniform_int(0, 65535)),
             static_cast<std::uint16_t>(rng.uniform_int(0, 65535))});
    }
    UpdateMessage decoded = UpdateMessage::decode(msg.encode());
    EXPECT_EQ(decoded, msg) << "iter " << iter << ": " << msg.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateRoundTrip, ::testing::Values(11, 222, 3333, 44444));

TEST(Summary, ReadableOutput) {
  UpdateMessage msg = make_v6_announcement();
  const std::string s = msg.summary();
  EXPECT_NE(s.find("2a0d:3dc1:1851::/48"), std::string::npos);
  EXPECT_NE(s.find("210312"), std::string::npos);
}

}  // namespace
}  // namespace zombiescope::bgp
