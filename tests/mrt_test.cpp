// Tests for the MRT (RFC 6396) codec: record round trips, file I/O,
// structural error handling, and the decoder's heap bounds.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "mrt/codec.hpp"
#include "netbase/rng.hpp"
#include "netbase/time.hpp"
#include "obs/heap.hpp"

namespace zombiescope::mrt {
namespace {

using bgp::AsPath;
using bgp::UpdateMessage;
using netbase::IpAddress;
using netbase::Prefix;
using netbase::Rng;
using netbase::utc;

Bgp4mpMessage make_message() {
  Bgp4mpMessage m;
  m.timestamp = utc(2024, 6, 4, 11, 45, 2);
  m.peer_asn = 211509;
  m.local_asn = 12654;
  m.peer_address = IpAddress::parse("2001:678:3f4:5::1");
  m.local_address = IpAddress::parse("2001:7f8::1");
  m.update.announced.push_back(Prefix::parse("2a0d:3dc1:1145::/48"));
  m.update.attributes.as_path = AsPath{211509, 25091, 8298, 210312};
  m.update.attributes.next_hop = IpAddress::parse("2001:678:3f4:5::1");
  return m;
}

TEST(MrtCodec, MessageRoundTrip) {
  MrtWriter w;
  w.write(make_message());
  auto records = decode_all(w.data());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::get<Bgp4mpMessage>(records[0]), make_message());
}

TEST(MrtCodec, StateChangeRoundTrip) {
  Bgp4mpStateChange s;
  s.timestamp = utc(2024, 6, 10, 0, 0, 0);
  s.peer_asn = 16347;
  s.local_asn = 12654;
  s.peer_address = IpAddress::parse("185.1.1.1");
  s.local_address = IpAddress::parse("185.1.1.2");
  s.old_state = bgp::SessionState::kEstablished;
  s.new_state = bgp::SessionState::kIdle;
  MrtWriter w;
  w.write(s);
  auto records = decode_all(w.data());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::get<Bgp4mpStateChange>(records[0]), s);
}

TEST(MrtCodec, PeerIndexTableRoundTrip) {
  PeerIndexTable t;
  t.timestamp = utc(2024, 6, 4);
  t.collector_bgp_id = 0xC0000201;
  t.view_name = "rrc25";
  t.peers.push_back({1, IpAddress::parse("2a0c:9a40:1031::504"), 211380});
  t.peers.push_back({2, IpAddress::parse("176.119.234.201"), 211509});  // v6-over-v4 peer
  t.peers.push_back({3, IpAddress::parse("2001:678:3f4:5::1"), 211509});
  MrtWriter w;
  w.write(t);
  auto records = decode_all(w.data());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::get<PeerIndexTable>(records[0]), t);
}

TEST(MrtCodec, RibRecordRoundTripV6) {
  RibEntryRecord rib;
  rib.timestamp = utc(2024, 6, 29, 8, 0, 0);
  rib.sequence = 42;
  rib.prefix = Prefix::parse("2a0d:3dc1:1851::/48");
  RibEntryRecord::Entry e;
  e.peer_index = 7;
  e.originated_time = utc(2024, 6, 21, 8, 30, 0);
  e.attributes.as_path = AsPath{61573, 28598, 10429, 12956, 3356, 34549, 8298, 210312};
  e.attributes.next_hop = IpAddress::parse("2001:db8::99");
  e.attributes.local_pref = 100;
  rib.entries.push_back(e);
  MrtWriter w;
  w.write(rib);
  auto records = decode_all(w.data());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::get<RibEntryRecord>(records[0]), rib);
}

TEST(MrtCodec, RibRecordRoundTripV4WithAggregator) {
  RibEntryRecord rib;
  rib.timestamp = utc(2018, 7, 19, 8, 0, 0);
  rib.sequence = 1;
  rib.prefix = Prefix::parse("84.205.71.0/24");
  RibEntryRecord::Entry e;
  e.peer_index = 3;
  e.originated_time = utc(2018, 7, 19, 0, 0, 2);
  e.attributes.as_path = AsPath{3333, 12654};
  e.attributes.next_hop = IpAddress::parse("193.0.4.28");
  e.attributes.aggregator = bgp::Aggregator{12654, IpAddress::parse("10.19.29.192")};
  rib.entries.push_back(e);
  MrtWriter w;
  w.write(rib);
  auto records = decode_all(w.data());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::get<RibEntryRecord>(records[0]), rib);
}

RibEntryRecord make_v4_rib(const bgp::PathAttributes& attributes) {
  RibEntryRecord rib;
  rib.timestamp = utc(2024, 6, 29, 8, 0, 0);
  rib.sequence = 9;
  rib.prefix = Prefix::parse("93.175.149.0/24");
  RibEntryRecord::Entry e;
  e.peer_index = 2;
  e.originated_time = utc(2024, 6, 29, 7, 0, 0);
  e.attributes = attributes;
  e.attributes.as_path = AsPath{3333, 12654};
  e.attributes.next_hop = IpAddress::parse("193.0.4.28");
  rib.entries.push_back(e);
  return rib;
}

TEST(MrtCodec, RibRecordKeepsAtomicAggregate) {
  bgp::PathAttributes attrs;
  attrs.local_pref = 100;
  attrs.atomic_aggregate = true;
  attrs.aggregator = bgp::Aggregator{12654, IpAddress::parse("10.19.29.192")};
  const RibEntryRecord rib = make_v4_rib(attrs);
  MrtWriter w;
  w.write(rib);
  const auto records = decode_all(w.data());
  ASSERT_EQ(records.size(), 1u);
  const auto& decoded = std::get<RibEntryRecord>(records[0]);
  EXPECT_TRUE(decoded.entries.at(0).attributes.atomic_aggregate);
  EXPECT_TRUE(decoded.entries.at(0).attributes.unknown.empty());
  EXPECT_EQ(decoded, rib);
}

TEST(MrtCodec, RibRecordKeepsUnknownAttributes) {
  bgp::PathAttributes attrs;
  bgp::RawAttribute large_community;  // LARGE_COMMUNITY (RFC 8092)
  large_community.flags = bgp::kAttrFlagOptional | bgp::kAttrFlagTransitive;
  large_community.type = 32;
  large_community.payload = {0, 0, 0x31, 0x6e, 0, 0, 0, 1, 0, 0, 0, 2};
  attrs.unknown.push_back(large_community);
  const RibEntryRecord rib = make_v4_rib(attrs);
  MrtWriter w;
  w.write(rib);
  const auto records = decode_all(w.data());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::get<RibEntryRecord>(records[0]), rib);
}

TEST(MrtCodec, RibRecordRejectsOriginAboveTwo) {
  MrtWriter w;
  w.write(make_v4_rib({}));
  auto bytes = w.take();
  // The entry's ORIGIN attribute: transitive flag, type 1, length 1, IGP.
  const std::vector<std::uint8_t> origin{bgp::kAttrFlagTransitive, 1, 1, 0};
  auto it = std::search(bytes.begin(), bytes.end(), origin.begin(), origin.end());
  ASSERT_NE(it, bytes.end());
  EXPECT_NO_THROW(decode_all(bytes));
  it[3] = 7;
  EXPECT_THROW(decode_all(bytes), netbase::DecodeError);
}

TEST(MrtCodec, UpdateOverItsLengthFieldIsRefusedAndTheArchiveStaysDecodable) {
  // 20,000 withdrawn /24s encode to 80,023 bytes, more than the BGP
  // header's 16-bit length can state. Written anyway, the record would
  // make decode_all reject the whole archive.
  Bgp4mpMessage big = make_message();
  big.update = UpdateMessage{};
  for (std::uint32_t i = 0; i < 20000; ++i)
    big.update.withdrawn.emplace_back(IpAddress::v4(0x0a000000 + (i << 8)), 24);
  const std::vector<MrtRecord> archive = {make_message(), big};
  EXPECT_THROW(encode_all(archive), netbase::DecodeError);

  MrtWriter w;
  w.write(make_message());
  EXPECT_THROW(w.write(big), netbase::DecodeError);
  w.write(make_message());
  const auto records = decode_all(w.data());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(std::get<Bgp4mpMessage>(records[1]), make_message());
}

TEST(MrtCodec, StreamOfMixedRecordsPreservesOrder) {
  MrtWriter w;
  auto m = make_message();
  for (int i = 0; i < 10; ++i) {
    m.timestamp = utc(2024, 6, 4, 11, 45, i);
    w.write(m);
  }
  auto records = decode_all(w.data());
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(record_timestamp(records[static_cast<std::size_t>(i)]),
              utc(2024, 6, 4, 11, 45, i));
}

TEST(MrtCodec, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "zombiescope_mrt_test.mrt").string();
  std::vector<MrtRecord> records;
  records.push_back(make_message());
  Bgp4mpStateChange s;
  s.timestamp = utc(2024, 6, 5);
  s.peer_asn = 1;
  s.local_asn = 2;
  s.peer_address = IpAddress::parse("10.0.0.1");
  s.local_address = IpAddress::parse("10.0.0.2");
  s.old_state = bgp::SessionState::kEstablished;
  s.new_state = bgp::SessionState::kActive;
  records.push_back(s);

  write_file(path, records);
  auto loaded = read_file(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(std::get<Bgp4mpMessage>(loaded[0]), std::get<Bgp4mpMessage>(records[0]));
  EXPECT_EQ(std::get<Bgp4mpStateChange>(loaded[1]), std::get<Bgp4mpStateChange>(records[1]));
  std::filesystem::remove(path);
}

TEST(MrtCodec, ReadMissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/zombiescope.mrt"), std::runtime_error);
}

TEST(MrtCodec, ReadFileThroughPipe) {
  // A pipe has no file size; the archive is larger than the pipe
  // buffer, so the reader sees it arrive in several pieces.
  std::vector<MrtRecord> records;
  for (int i = 0; i < 3000; ++i) {
    Bgp4mpMessage m = make_message();
    m.timestamp += i;
    records.push_back(m);
  }
  const std::vector<std::uint8_t> bytes = encode_all(records);
  ASSERT_GT(bytes.size(), std::size_t{1} << 17);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n = ::write(fds[1], bytes.data() + written, bytes.size() - written);
      if (n <= 0) break;
      written += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
  });
  std::vector<MrtRecord> loaded;
  std::string error;
  try {
    loaded = read_file("/dev/fd/" + std::to_string(fds[0]));
  } catch (const std::exception& e) {
    error = e.what();
  }
  // Drain what the reader left, so the writer finishes either way.
  char sink[4096];
  while (::read(fds[0], sink, sizeof sink) > 0) {
  }
  writer.join();
  ::close(fds[0]);
  EXPECT_EQ(error, "");
  EXPECT_EQ(loaded, records);
}

TEST(MrtCodec, ReadDirectoryThrows) {
  EXPECT_THROW(read_file(std::filesystem::temp_directory_path().string()), std::runtime_error);
}

TEST(MrtCodec, TruncatedStreamThrows) {
  MrtWriter w;
  w.write(make_message());
  auto bytes = w.take();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(decode_all(bytes), netbase::DecodeError);
}

TEST(MrtCodec, UnsupportedTypeThrows) {
  netbase::ByteWriter w;
  w.u32(0);
  w.u16(99);  // unknown MRT type
  w.u16(0);
  w.u32(0);
  EXPECT_THROW(decode_all(w.data()), netbase::DecodeError);
}

TEST(MrtCodec, RecordSummariesAreReadable) {
  auto m = make_message();
  EXPECT_NE(record_summary(m).find("BGP4MP"), std::string::npos);
  EXPECT_NE(record_summary(m).find("2a0d:3dc1:1145::/48"), std::string::npos);
}

// Property: randomized update messages survive MRT wrapping.
class MrtRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MrtRoundTrip, RandomizedUpdates) {
  Rng rng(GetParam());
  MrtWriter w;
  std::vector<Bgp4mpMessage> originals;
  for (int i = 0; i < 100; ++i) {
    Bgp4mpMessage m;
    m.timestamp = utc(2024, 6, 4) + rng.uniform_int(0, 86400 * 18);
    m.peer_asn = static_cast<bgp::Asn>(rng.uniform_int(1, 400000));
    m.local_asn = 12654;
    const bool v6_session = rng.chance(0.5);
    m.peer_address = v6_session ? IpAddress::parse("2001:db8::2") : IpAddress::parse("10.1.0.2");
    m.local_address = v6_session ? IpAddress::parse("2001:db8::1") : IpAddress::parse("10.1.0.1");
    const bool announce = rng.chance(0.6);
    Prefix p = Prefix::parse("2a0d:3dc1:" + std::to_string(rng.uniform_int(0, 2359)) + "::/48");
    if (announce) {
      m.update.announced.push_back(p);
      std::vector<bgp::Asn> asns;
      const int hops = static_cast<int>(rng.uniform_int(1, 8));
      for (int h = 0; h < hops; ++h)
        asns.push_back(static_cast<bgp::Asn>(rng.uniform_int(1, 400000)));
      m.update.attributes.as_path = AsPath::sequence(asns);
      m.update.attributes.next_hop = IpAddress::parse("2001:db8::2");
    } else {
      m.update.withdrawn.push_back(p);
    }
    originals.push_back(m);
    w.write(m);
  }
  auto records = decode_all(w.data());
  ASSERT_EQ(records.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i)
    EXPECT_EQ(std::get<Bgp4mpMessage>(records[i]), originals[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MrtRoundTrip, ::testing::Values(5, 55, 555));

// Heap bounds, counted by the interposed allocator in the plain build.
// Sanitizer builds own malloc, so these skip there.
bool heap_sessions_available() {
  return obs::kHeapCompiledIn && obs::HeapProfiler::interposition_available();
}

// An update archive in which every announcement carries one of four
// paths, as beacon archives do: 7 of 8 messages announce one prefix,
// the 8th withdraws one.
std::vector<std::uint8_t> shared_path_archive(std::size_t records) {
  const std::vector<AsPath> paths{AsPath{211509, 25091, 8298, 210312},
                                  AsPath{6939, 8298, 210312},
                                  AsPath{3356, 1299, 25091, 8298, 210312},
                                  AsPath{174, 8298, 210312}};
  MrtWriter w;
  for (std::size_t i = 0; i < records; ++i) {
    Bgp4mpMessage m = make_message();
    m.timestamp += static_cast<netbase::TimePoint>(i);
    const Prefix p = Prefix::parse("2a0d:3dc1:" + std::to_string(i % 2000) + "::/48");
    m.update.announced.clear();
    if (i % 8 == 7) {
      m.update.withdrawn.push_back(p);
      m.update.attributes = {};
    } else {
      m.update.announced.push_back(p);
      m.update.attributes.as_path = paths[i % paths.size()];
    }
    w.write(m);
  }
  return w.take();
}

TEST(MrtHeap, DecodeAllocatesAtMostOneAndAHalfPerRecord) {
  if (!heap_sessions_available()) GTEST_SKIP() << "allocator interposition unavailable";
  constexpr std::size_t kRecords = 4096;
  const auto bytes = shared_path_archive(kRecords);
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  ASSERT_TRUE(profiler.start());
  const auto records = decode_all(bytes);
  const obs::HeapReport report = profiler.stop();
  ASSERT_TRUE(report.valid);
  ASSERT_EQ(records.size(), kRecords);
  EXPECT_LE(static_cast<double>(report.allocs) / kRecords, 1.5) << report.allocs;
}

TEST(MrtHeap, CopyingDecodedRecordsAllocatesAtMostOneAndAHalfPerRecord) {
  if (!heap_sessions_available()) GTEST_SKIP() << "allocator interposition unavailable";
  constexpr std::size_t kRecords = 4096;
  const auto records = decode_all(shared_path_archive(kRecords));
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  ASSERT_TRUE(profiler.start());
  const std::vector<MrtRecord> copy = records;
  const obs::HeapReport report = profiler.stop();
  ASSERT_TRUE(report.valid);
  ASSERT_EQ(copy, records);
  EXPECT_LE(static_cast<double>(report.allocs) / kRecords, 1.5) << report.allocs;
}

TEST(MrtHeap, EmptyHeadersCannotReserveManyTimesTheirSize) {
  if (!heap_sessions_available()) GTEST_SKIP() << "allocator interposition unavailable";
  // 64 Ki BGP4MP_MESSAGE_AS4 common headers, each with an empty body.
  netbase::ByteWriter w;
  for (int i = 0; i < 65536; ++i) {
    w.u32(0);
    w.u16(static_cast<std::uint16_t>(RecordType::kBgp4mp));
    w.u16(static_cast<std::uint16_t>(Bgp4mpSubtype::kMessageAs4));
    w.u32(0);
  }
  const auto bytes = w.take();
  obs::HeapProfiler& profiler = obs::HeapProfiler::global();
  ASSERT_TRUE(profiler.start());
  EXPECT_THROW(decode_all(bytes), netbase::DecodeError);
  const obs::HeapReport report = profiler.stop();
  ASSERT_TRUE(report.valid);
  EXPECT_LE(report.peak_live_bytes, 5 * bytes.size()) << "input " << bytes.size() << " bytes";
}

}  // namespace
}  // namespace zombiescope::mrt
