// Unit and property tests for the bgp module: AS paths, attributes,
// and the RFC 4271/4760/6793 UPDATE wire codec.

#include <gtest/gtest.h>

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
