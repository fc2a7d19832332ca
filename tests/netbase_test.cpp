// Unit and property tests for the netbase module: IP parsing and
// formatting, prefix canonicalization, trie LPM, byte buffers, time.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "netbase/bytes.hpp"
#include "netbase/ip.hpp"
#include "netbase/rng.hpp"
#include "netbase/time.hpp"
#include "netbase/trie.hpp"

namespace zombiescope::netbase {
namespace {

TEST(IpAddress, ParsesAndFormatsV4) {
  auto a = IpAddress::parse("192.0.2.1");
  EXPECT_TRUE(a.is_v4());
  EXPECT_EQ(a.to_string(), "192.0.2.1");
  EXPECT_EQ(a.v4_value(), 0xC0000201u);
}

TEST(IpAddress, ParsesAndFormatsV6Canonical) {
  EXPECT_EQ(IpAddress::parse("2001:db8::1").to_string(), "2001:db8::1");
  EXPECT_EQ(IpAddress::parse("2001:0DB8:0:0:0:0:0:1").to_string(), "2001:db8::1");
  EXPECT_EQ(IpAddress::parse("::").to_string(), "::");
  EXPECT_EQ(IpAddress::parse("::1").to_string(), "::1");
  EXPECT_EQ(IpAddress::parse("fe80::").to_string(), "fe80::");
  // RFC 5952: compress the longest run; leftmost on tie.
  EXPECT_EQ(IpAddress::parse("2001:0:0:1:0:0:0:1").to_string(), "2001:0:0:1::1");
  EXPECT_EQ(IpAddress::parse("2001:db8:0:0:1:0:0:1").to_string(), "2001:db8::1:0:0:1");
}

TEST(IpAddress, ParsesEmbeddedV4InV6) {
  auto a = IpAddress::parse("::ffff:192.0.2.1");
  EXPECT_TRUE(a.is_v6());
  EXPECT_EQ(a.bytes()[10], 0xff);
  EXPECT_EQ(a.bytes()[12], 192);
  EXPECT_EQ(a.bytes()[15], 1);
}

TEST(IpAddress, RejectsMalformed) {
  const char* bad[] = {"",       "1.2.3",      "1.2.3.4.5", "256.1.1.1", "01.2.3.4",
                       "1.2.3.", ":::",        "1::2::3",   "12345::",   "g::1",
                       "1:2:3:4:5:6:7:8:9",    "1.2.3.4:80"};
  for (const char* text : bad) {
    EXPECT_FALSE(IpAddress::try_parse(text).has_value()) << text;
  }
  EXPECT_THROW(IpAddress::parse("xyz"), std::invalid_argument);
}

TEST(IpAddress, BitAccess) {
  auto a = IpAddress::parse("128.0.0.1");
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(31));
}

TEST(IpAddress, Ordering) {
  EXPECT_LT(IpAddress::parse("10.0.0.1"), IpAddress::parse("10.0.0.2"));
  EXPECT_LT(IpAddress::parse("10.0.0.1"), IpAddress::parse("::1"));  // v4 < v6 family
}

TEST(Prefix, CanonicalizesHostBits) {
  Prefix p(IpAddress::parse("192.0.2.255"), 24);
  EXPECT_EQ(p.to_string(), "192.0.2.0/24");
  EXPECT_EQ(p, Prefix::parse("192.0.2.0/24"));

  Prefix q(IpAddress::parse("2a0d:3dc1:1851::ffff"), 48);
  EXPECT_EQ(q.to_string(), "2a0d:3dc1:1851::/48");
}

TEST(Prefix, ParseRejectsBadLength) {
  EXPECT_FALSE(Prefix::try_parse("192.0.2.0/33").has_value());
  EXPECT_FALSE(Prefix::try_parse("2001:db8::/129").has_value());
  EXPECT_FALSE(Prefix::try_parse("192.0.2.0").has_value());
  EXPECT_FALSE(Prefix::try_parse("/24").has_value());
}

TEST(Prefix, ContainsAndCovers) {
  auto p = Prefix::parse("2a0d:3dc1::/32");
  EXPECT_TRUE(p.contains(IpAddress::parse("2a0d:3dc1:1851::1")));
  EXPECT_FALSE(p.contains(IpAddress::parse("2a0d:3dc2::1")));
  EXPECT_FALSE(p.contains(IpAddress::parse("10.0.0.1")));  // family mismatch
  EXPECT_TRUE(p.covers(Prefix::parse("2a0d:3dc1:1851::/48")));
  EXPECT_TRUE(p.covers(p));
  EXPECT_FALSE(Prefix::parse("2a0d:3dc1:1851::/48").covers(p));
}

TEST(Prefix, ZeroLengthContainsEverything) {
  Prefix v4_default = Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(v4_default.contains(IpAddress::parse("255.255.255.255")));
  EXPECT_FALSE(v4_default.contains(IpAddress::parse("::1")));
}

// Property: parse(to_string(p)) == p over randomized prefixes.
class PrefixRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixRoundTrip, TextRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::array<std::uint8_t, 16> bytes;
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const bool v4 = rng.chance(0.5);
    IpAddress addr = v4 ? IpAddress::v4({bytes[0], bytes[1], bytes[2], bytes[3]})
                        : IpAddress::v6(bytes);
    const int length = static_cast<int>(rng.uniform_int(0, addr.bit_length()));
    Prefix p(addr, length);
    EXPECT_EQ(Prefix::parse(p.to_string()), p) << p.to_string();
    EXPECT_EQ(IpAddress::parse(addr.to_string()), addr) << addr.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixRoundTrip, ::testing::Values(1, 7, 42, 1337));

TEST(PrefixTrie, ExactInsertFindErase) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(Prefix::parse("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(Prefix::parse("10.0.0.0/8"), 2));  // replace
  EXPECT_EQ(*trie.find(Prefix::parse("10.0.0.0/8")), 2);
  EXPECT_EQ(trie.find(Prefix::parse("10.0.0.0/9")), nullptr);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_TRUE(trie.erase(Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(trie.erase(Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(trie.empty());
}

TEST(PrefixTrie, LongestMatchPrefersMostSpecific) {
  PrefixTrie<std::string> trie;
  trie.insert(Prefix::parse("2a0d:3dc1::/32"), "covering");
  trie.insert(Prefix::parse("2a0d:3dc1:1851::/48"), "beacon");
  Prefix matched;
  const std::string* hit = trie.longest_match(IpAddress::parse("2a0d:3dc1:1851::1"), &matched);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "beacon");
  EXPECT_EQ(matched, Prefix::parse("2a0d:3dc1:1851::/48"));
  // The paper's Fig. 1 partial-outage scenario: traffic to an address
  // outside the /48 falls back to the covering /32.
  hit = trie.longest_match(IpAddress::parse("2a0d:3dc1:ffff::1"), &matched);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "covering");
}

TEST(PrefixTrie, LongestMatchMissesOtherFamily) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::parse("0.0.0.0/0"), 7);
  EXPECT_EQ(trie.longest_match(IpAddress::parse("::1")), nullptr);
  EXPECT_NE(trie.longest_match(IpAddress::parse("1.1.1.1")), nullptr);
}

TEST(PrefixTrie, VisitCoveredEnumeratesSubtree) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(Prefix::parse("10.1.0.0/16"), 2);
  trie.insert(Prefix::parse("10.2.0.0/16"), 3);
  trie.insert(Prefix::parse("11.0.0.0/8"), 4);
  std::map<std::string, int> seen;
  trie.visit_covered(Prefix::parse("10.0.0.0/8"),
                     [&](const Prefix& p, const int& v) { seen[p.to_string()] = v; });
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen["10.0.0.0/8"], 1);
  EXPECT_EQ(seen["10.1.0.0/16"], 2);
  EXPECT_EQ(seen["10.2.0.0/16"], 3);
}

// Property: trie LPM agrees with a linear scan over random data.
class TrieVsLinear : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieVsLinear, Agree) {
  Rng rng(GetParam());
  PrefixTrie<int> trie;
  std::vector<std::pair<Prefix, int>> entries;
  for (int i = 0; i < 300; ++i) {
    std::array<std::uint8_t, 16> bytes{};
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    IpAddress addr = IpAddress::v6(bytes);
    // Cluster prefixes so covers actually happen.
    bytes[0] = 0x2a;
    bytes[1] = 0x0d;
    addr = IpAddress::v6(bytes);
    const int length = static_cast<int>(rng.uniform_int(8, 64));
    Prefix p(addr, length);
    trie.insert(p, i);
    // Keep only the latest value for duplicate prefixes, like the trie.
    bool replaced = false;
    for (auto& e : entries) {
      if (e.first == p) {
        e.second = i;
        replaced = true;
        break;
      }
    }
    if (!replaced) entries.emplace_back(p, i);
  }
  for (int i = 0; i < 500; ++i) {
    std::array<std::uint8_t, 16> bytes{};
    bytes[0] = 0x2a;
    bytes[1] = 0x0d;
    for (std::size_t k = 2; k < 9; ++k)
      bytes[k] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    IpAddress probe = IpAddress::v6(bytes);
    const int* got = trie.longest_match(probe);
    const std::pair<Prefix, int>* want = nullptr;
    for (const auto& e : entries) {
      if (!e.first.contains(probe)) continue;
      if (want == nullptr || e.first.length() > want->first.length()) want = &e;
    }
    if (want == nullptr) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, want->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieVsLinear, ::testing::Values(3, 17, 99));

TEST(Bytes, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ReaderThrowsOnTruncation) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0);
  EXPECT_THROW(r.u32(), DecodeError);
}

TEST(Bytes, PatchLengthField) {
  ByteWriter w;
  const std::size_t at = w.reserve(2);
  w.u32(42);
  w.patch_u16(at, static_cast<std::uint16_t>(w.size()));
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 6);
  EXPECT_EQ(r.u32(), 42u);
}

TEST(Bytes, SubReaderIsBounded) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  ByteReader r(w.data());
  ByteReader sub = r.sub(4);
  EXPECT_EQ(sub.u32(), 1u);
  EXPECT_THROW(sub.u8(), DecodeError);
  EXPECT_EQ(r.u32(), 2u);
}

TEST(Time, CivilRoundTrip) {
  const TimePoint t = utc(2024, 6, 21, 19, 49, 0);
  CivilTime c = to_civil(t);
  EXPECT_EQ(c.year, 2024);
  EXPECT_EQ(c.month, 6);
  EXPECT_EQ(c.day, 21);
  EXPECT_EQ(c.hour, 19);
  EXPECT_EQ(c.minute, 49);
  EXPECT_EQ(from_civil(c), t);
}

TEST(Time, KnownEpochValues) {
  EXPECT_EQ(utc(1970, 1, 1), 0);
  EXPECT_EQ(utc(2018, 7, 19, 2, 0, 2), 1531965602);  // paper §3.1 example message
  EXPECT_EQ(utc(2024, 2, 29), utc(2024, 2, 28) + kDay);  // leap year
}

TEST(Time, StartOfMonthAndDay) {
  const TimePoint t = utc(2018, 7, 19, 2, 0, 2);
  EXPECT_EQ(start_of_month(t), utc(2018, 7, 1));
  EXPECT_EQ(start_of_day(t), utc(2018, 7, 19));
}

TEST(Time, PaperAggregatorExample) {
  // §3.1: Aggregator 10.19.29.192 -> 1,252,800 seconds after 2018-07-01
  // = 2018-07-15 12:00 UTC.
  EXPECT_EQ(utc(2018, 7, 1) + 1252800, utc(2018, 7, 15, 12, 0, 0));
}

TEST(Time, Formatting) {
  EXPECT_EQ(format_utc(utc(2024, 6, 4, 11, 45, 0)), "2024-06-04 11:45:00");
  EXPECT_EQ(format_date(utc(2025, 3, 11, 23, 0, 0)), "2025-03-11");
  EXPECT_EQ(format_duration(90 * kMinute), "90m");
  EXPECT_EQ(format_duration(262 * kDay), "262.0d");
}

TEST(Time, RejectsInvalidCivil) {
  EXPECT_THROW(from_civil({2024, 13, 1, 0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(from_civil({2023, 2, 29, 0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(from_civil({2024, 6, 1, 24, 0, 0}), std::invalid_argument);
}

TEST(Time, ParseDateAcceptsCalendarDates) {
  EXPECT_EQ(parse_date("2024-06-10"), utc(2024, 6, 10));
  EXPECT_EQ(parse_date("2024-02-29"), utc(2024, 2, 29));  // leap year
}

TEST(Time, ParseDateRejectsMalformedText) {
  for (const char* text : {"2024-06-10x", "2023-02-29", "2024-00-10", "2024-13-10",
                           "2024-06-00", "2024-06-32", "2024-06", "2024/06/10", "", "x"})
    EXPECT_FALSE(parse_date(text).has_value()) << text;
}

TEST(Rng, DeterministicAndForkIndependent) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  Rng child = a.fork();
  (void)child.uniform();  // must not perturb b's sibling stream draw count
}

TEST(Rng, ChanceRespectsProbabilityGrossly) {
  Rng rng(999);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.1) ? 1 : 0;
  EXPECT_GT(hits, 800);
  EXPECT_LT(hits, 1200);
}

TEST(Rng, ParetoIsHeavyTailedAboveScale) {
  Rng rng(4242);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.2), 2.0);
}

}  // namespace
}  // namespace zombiescope::netbase
