// Tests for the wire subsystem below the socket layer: BGP-4 message
// codecs (OPEN with the full capability set, NOTIFICATION vocabulary,
// UPDATE framing), the header fuzz table (every malformed input must
// map to the exact NOTIFICATION code/subcode RFC 4271 §6 prescribes),
// FrameReader segmentation, graceful-restart stale retention, §6.8
// collision resolution, and the bridge sideband attributes.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/session_fsm.hpp"
#include "bgp/update.hpp"
#include "netbase/ip.hpp"
#include "wire/bridge.hpp"
#include "wire/message.hpp"
#include "wire/retention.hpp"

namespace zombiescope::wire {
namespace {

using netbase::IpAddress;
using netbase::Prefix;

std::span<const std::uint8_t> as_span(const std::vector<std::uint8_t>& v) {
  return {v.data(), v.size()};
}

// ---------------------------------------------------------------- codec

TEST(WireCodec, KeepaliveIsNineteenHeaderBytes) {
  const auto wire = encode_keepalive();
  ASSERT_EQ(wire.size(), kHeaderSize);
  const auto header = decode_header(as_span(wire));
  EXPECT_EQ(header.length, kHeaderSize);
  EXPECT_EQ(header.type, bgp::MessageType::kKeepalive);
}

TEST(WireCodec, OpenRoundTripsEveryCapability) {
  OpenMessage open;
  open.asn = 4200000001;  // exceeds 16 bits: wire My-AS must be AS_TRANS
  open.hold_time = 180;
  open.bgp_id = 0xc0000201;
  open.cap_four_octet_asn = true;
  open.cap_route_refresh = true;
  open.multiprotocol = {{1, 1}, {2, 1}};
  open.graceful_restart = GracefulRestart{true, 2400, {{1, 1, true}, {2, 1, false}}};
  open.llgr = LongLivedGracefulRestart{{{1, 1, 86400}}};
  open.bridge_peer_address = IpAddress::parse("2001:7f8:4::8447:1");
  open.unknown_capabilities = {{73, {0x01, 0x02}}};

  const auto wire = open.encode();
  const auto header = decode_header(as_span(wire));
  EXPECT_EQ(header.type, bgp::MessageType::kOpen);
  EXPECT_EQ(header.length, wire.size());
  const auto decoded = OpenMessage::decode(as_span(wire));
  EXPECT_EQ(decoded, open);
}

TEST(WireCodec, OpenSmallAsnRoundTrips) {
  OpenMessage open;
  open.asn = 64999;
  open.hold_time = 90;
  open.bgp_id = 0xc0000263;
  const auto decoded = OpenMessage::decode(as_span(open.encode()));
  EXPECT_EQ(decoded.asn, 64999u);
  EXPECT_EQ(decoded.hold_time, 90);
  EXPECT_EQ(decoded.bgp_id, 0xc0000263u);
}

TEST(WireCodec, OpenBridgeAddressV4RoundTrips) {
  OpenMessage open;
  open.asn = 65010;
  open.bgp_id = 1;
  open.bridge_peer_address = IpAddress::parse("192.0.2.41");
  const auto decoded = OpenMessage::decode(as_span(open.encode()));
  ASSERT_TRUE(decoded.bridge_peer_address.has_value());
  EXPECT_EQ(decoded.bridge_peer_address->to_string(), "192.0.2.41");
}

TEST(WireCodec, GrRestartTimeIsTwelveBitsOnTheWire) {
  OpenMessage open;
  open.asn = 65020;
  open.bgp_id = 2;
  open.graceful_restart = GracefulRestart{false, 4095, {{1, 1, false}}};
  const auto decoded = OpenMessage::decode(as_span(open.encode()));
  ASSERT_TRUE(decoded.graceful_restart.has_value());
  EXPECT_EQ(decoded.graceful_restart->restart_time, 4095);
}

TEST(WireCodec, NotificationRoundTripsWithData) {
  NotificationMessage n;
  n.code = NotifyCode::kOpenMessageError;
  n.subcode = kOpenUnacceptableHoldTime;
  n.data = {0x00, 0x01};
  const auto decoded = NotificationMessage::decode(as_span(n.encode()));
  EXPECT_EQ(decoded, n);
}

TEST(WireCodec, NotificationNamesCoverTheVocabulary) {
  EXPECT_EQ(to_string(NotifyCode::kHoldTimerExpired), "Hold Timer Expired");
  EXPECT_EQ(to_string(NotifyCode::kSendHoldTimerExpired),
            "Send Hold Timer Expired");
  NotificationMessage n;
  n.code = NotifyCode::kCease;
  n.subcode = kCeaseAdminShutdown;
  EXPECT_NE(n.to_string().find("Cease"), std::string::npos);
  EXPECT_NE(notify_subcode_name(NotifyCode::kCease, kCeaseConnectionCollision)
                .find("ollision"),
            std::string::npos);
  // Unknown subcodes degrade to a numeric display, never throw.
  EXPECT_NE(notify_subcode_name(NotifyCode::kCease, 99).find("99"),
            std::string::npos);
}

TEST(WireCodec, UpdateFramingRoundTripsThroughBgpCodec) {
  bgp::UpdateMessage update;
  update.withdrawn.push_back(Prefix::parse("198.51.100.0/24"));
  update.announced.push_back(Prefix::parse("203.0.113.0/24"));
  update.attributes.as_path = bgp::AsPath{65001, 64511, 64496};
  update.attributes.next_hop = IpAddress::parse("192.0.2.1");

  const auto wire = encode_update(update);
  const auto header = decode_header(as_span(wire));
  EXPECT_EQ(header.type, bgp::MessageType::kUpdate);
  const auto decoded = decode_update(as_span(wire));
  EXPECT_EQ(decoded.withdrawn, update.withdrawn);
  EXPECT_EQ(decoded.announced, update.announced);
  EXPECT_EQ(decoded.attributes.as_path, update.attributes.as_path);
}

TEST(WireCodec, UpdateOverFourKiloByteCeilingThrows) {
  // 1200 v4 /24s at 4 NLRI bytes each is ~4800 bytes: past 4096.
  bgp::UpdateMessage update;
  update.attributes.as_path = bgp::AsPath{65001};
  update.attributes.next_hop = IpAddress::parse("192.0.2.1");
  for (int i = 0; i < 1200; ++i) {
    update.announced.push_back(
        Prefix(IpAddress::v4((10u << 24) | (static_cast<std::uint32_t>(i) << 8)),
               24));
  }
  try {
    encode_update(update);
    FAIL() << "expected WireError for an oversized UPDATE";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), NotifyCode::kUpdateMessageError);
  }
}

TEST(WireCodec, SplitUpdateKeepsEveryRouteAndFitsTheWire) {
  bgp::UpdateMessage update;
  update.attributes.as_path = bgp::AsPath{65001, 64511};
  update.attributes.next_hop = IpAddress::parse("192.0.2.1");
  for (int i = 0; i < 1000; ++i) {
    update.announced.push_back(
        Prefix(IpAddress::v4((10u << 24) | (static_cast<std::uint32_t>(i) << 8)),
               24));
    if (i < 500) {
      update.withdrawn.push_back(
          Prefix(IpAddress::v4((172u << 24) | (16u << 16) |
                               (static_cast<std::uint32_t>(i) << 8)),
                 24));
    }
  }
  const auto parts = split_update(update);
  ASSERT_GT(parts.size(), 1u);
  std::size_t announced = 0, withdrawn = 0;
  for (const auto& part : parts) {
    const auto wire = encode_update(part);  // must not throw
    EXPECT_LE(wire.size(), kMaxMessageSize);
    announced += part.announced.size();
    withdrawn += part.withdrawn.size();
    if (!part.announced.empty()) {
      EXPECT_EQ(part.attributes.as_path, update.attributes.as_path);
    }
  }
  EXPECT_EQ(announced, update.announced.size());
  EXPECT_EQ(withdrawn, update.withdrawn.size());
}

TEST(WireCodec, SplitUpdateHalvesPartsForALargeAttributeSet) {
  // 900 communities (3.6 KB) leave room for fewer than 128 /24s a
  // message: the parts halve to 64 prefixes instead of failing.
  bgp::UpdateMessage update;
  update.attributes.as_path = bgp::AsPath{65001, 64511};
  update.attributes.next_hop = IpAddress::parse("192.0.2.1");
  for (std::uint16_t i = 0; i < 900; ++i) update.attributes.communities.push_back({65001, i});
  for (std::uint32_t i = 0; i < 300; ++i)
    update.announced.emplace_back(IpAddress::v4((10u << 24) | (i << 8)), 24);
  const auto parts = split_update(update);
  ASSERT_EQ(parts.size(), 5u);
  std::vector<Prefix> announced;
  for (const auto& part : parts) {
    EXPECT_LE(encode_update(part).size(), kMaxMessageSize);
    EXPECT_EQ(part.attributes, update.attributes);
    announced.insert(announced.end(), part.announced.begin(), part.announced.end());
  }
  EXPECT_EQ(parts[0].announced.size(), 64u);
  EXPECT_EQ(announced, update.announced);
}

TEST(WireCodec, SplitUpdateSplitsAMessageOverItsLengthField) {
  // 20,000 withdrawn /24s are too long for one message's length field,
  // so the fit check's encode throws; the split still goes ahead.
  bgp::UpdateMessage update;
  for (std::uint32_t i = 0; i < 20000; ++i)
    update.withdrawn.emplace_back(IpAddress::v4((10u << 24) | (i << 8)), 24);
  const auto parts = split_update(update);
  ASSERT_EQ(parts.size(), (20000u + 127) / 128);
  std::vector<Prefix> withdrawn;
  for (const auto& part : parts) {
    EXPECT_LE(encode_update(part).size(), kMaxMessageSize);
    withdrawn.insert(withdrawn.end(), part.withdrawn.begin(), part.withdrawn.end());
  }
  EXPECT_EQ(withdrawn, update.withdrawn);
}

TEST(WireCodec, SplitUpdateLeavesSmallMessagesAlone) {
  bgp::UpdateMessage update;
  update.withdrawn.push_back(Prefix::parse("198.51.100.0/24"));
  const auto parts = split_update(update);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].withdrawn, update.withdrawn);
}

// ------------------------------------------------------- header fuzzing

struct FuzzCase {
  const char* name;
  std::vector<std::uint8_t> wire;
  NotifyCode code;
  std::uint8_t subcode;
};

std::vector<std::uint8_t> header_bytes(std::uint16_t length, std::uint8_t type,
                                       std::uint8_t marker_byte = 0xff) {
  std::vector<std::uint8_t> wire(kHeaderSize, marker_byte);
  for (std::size_t i = 16; i < kHeaderSize; ++i) wire[i] = 0;
  wire[16] = static_cast<std::uint8_t>(length >> 8);
  wire[17] = static_cast<std::uint8_t>(length & 0xff);
  wire[18] = type;
  return wire;
}

TEST(WireHeaderFuzz, MalformedHeadersMapToExactNotifications) {
  const std::vector<FuzzCase> cases = {
      {"bad marker", header_bytes(19, 4, 0x00),
       NotifyCode::kMessageHeaderError, kHdrConnectionNotSynchronized},
      {"length below minimum", header_bytes(18, 4),
       NotifyCode::kMessageHeaderError, kHdrBadMessageLength},
      {"length above 4096", header_bytes(4097, 2),
       NotifyCode::kMessageHeaderError, kHdrBadMessageLength},
      {"open shorter than minimum", header_bytes(19 + 5, 1),
       NotifyCode::kMessageHeaderError, kHdrBadMessageLength},
      {"keepalive with body", header_bytes(20, 4),
       NotifyCode::kMessageHeaderError, kHdrBadMessageLength},
      {"notification shorter than minimum", header_bytes(20, 3),
       NotifyCode::kMessageHeaderError, kHdrBadMessageLength},
      {"unknown message type", header_bytes(19, 9),
       NotifyCode::kMessageHeaderError, kHdrBadMessageType},
  };
  for (const auto& c : cases) {
    try {
      decode_header(as_span(c.wire));
      FAIL() << c.name << ": expected WireError";
    } catch (const WireError& e) {
      EXPECT_EQ(e.code(), c.code) << c.name;
      EXPECT_EQ(e.subcode(), c.subcode) << c.name;
    }
  }
}

TEST(WireHeaderFuzz, TruncatedOpenBodiesThrowOpenErrors) {
  OpenMessage open;
  open.asn = 65001;
  open.bgp_id = 7;
  open.cap_route_refresh = true;
  open.graceful_restart = GracefulRestart{false, 120, {{1, 1, false}}};
  const auto full = open.encode();
  // Chop the body at every length from just-past-header to full-1; each
  // must throw (WireError for the codec layers, never anything else),
  // and never crash — the fuzz contract.
  for (std::size_t cut = kHeaderSize; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> truncated(full.begin(),
                                        full.begin() + static_cast<long>(cut));
    // Patch the header length so only the *body* truncation is tested.
    truncated[16] = static_cast<std::uint8_t>(cut >> 8);
    truncated[17] = static_cast<std::uint8_t>(cut & 0xff);
    if (cut < kHeaderSize + 10) {
      // Shorter than the minimum OPEN: the header check rejects it.
      EXPECT_THROW(decode_header(as_span(truncated)), WireError) << cut;
      continue;
    }
    EXPECT_THROW(OpenMessage::decode(as_span(truncated)), WireError) << cut;
  }
}

TEST(WireHeaderFuzz, OpenWithWrongVersionReportsUnsupportedVersion) {
  OpenMessage open;
  open.asn = 65001;
  open.bgp_id = 7;
  auto wire = open.encode();
  wire[kHeaderSize] = 3;  // BGP-3
  try {
    OpenMessage::decode(as_span(wire));
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), NotifyCode::kOpenMessageError);
    EXPECT_EQ(e.subcode(), kOpenUnsupportedVersion);
  }
}

TEST(WireHeaderFuzz, OpenWithHoldTimeOneOrTwoIsUnacceptable) {
  for (std::uint16_t hold : {1, 2}) {
    OpenMessage open;
    open.asn = 65001;
    open.bgp_id = 7;
    open.hold_time = hold;
    try {
      OpenMessage::decode(as_span(open.encode()));
      FAIL() << "hold=" << hold;
    } catch (const WireError& e) {
      EXPECT_EQ(e.code(), NotifyCode::kOpenMessageError);
      EXPECT_EQ(e.subcode(), kOpenUnacceptableHoldTime);
    }
  }
}

TEST(WireHeaderFuzz, TruncatedUpdateBodiesThrowWireErrors) {
  bgp::UpdateMessage update;
  update.withdrawn.push_back(Prefix::parse("198.51.100.0/24"));
  update.announced.push_back(Prefix::parse("203.0.113.0/24"));
  update.attributes.as_path = bgp::AsPath{65001};
  update.attributes.next_hop = IpAddress::parse("192.0.2.1");
  const auto full = encode_update(update);
  // A truncation that lands exactly on an NLRI boundary yields a
  // shorter-but-valid UPDATE, so the contract is: every cut either
  // decodes cleanly or throws WireError — never any other exception,
  // never a crash — and most cuts must throw.
  int threw = 0;
  for (std::size_t cut = kHeaderSize + 4; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> truncated(full.begin(),
                                        full.begin() + static_cast<long>(cut));
    truncated[16] = static_cast<std::uint8_t>(cut >> 8);
    truncated[17] = static_cast<std::uint8_t>(cut & 0xff);
    try {
      (void)decode_update(as_span(truncated));
    } catch (const WireError&) {
      ++threw;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "cut " << cut << ": non-WireError escape: " << e.what();
    }
  }
  EXPECT_GT(threw, 0);
}

// ---------------------------------------------------------- FrameReader

TEST(WireFrameReader, ReassemblesAcrossArbitrarySegmentation) {
  OpenMessage open;
  open.asn = 65001;
  open.bgp_id = 9;
  std::vector<std::uint8_t> stream;
  const auto open_wire = open.encode();
  const auto keepalive_wire = encode_keepalive();
  stream.insert(stream.end(), open_wire.begin(), open_wire.end());
  stream.insert(stream.end(), keepalive_wire.begin(), keepalive_wire.end());
  stream.insert(stream.end(), keepalive_wire.begin(), keepalive_wire.end());

  // Feed the stream in every chunk size from 1 to 23 bytes; the frames
  // coming out must be identical regardless.
  for (std::size_t chunk = 1; chunk <= 23; ++chunk) {
    FrameReader reader;
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - off);
      reader.append(stream.data() + off, n);
      while (auto frame = reader.next()) frames.push_back(std::move(*frame));
    }
    ASSERT_EQ(frames.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0], open_wire) << "chunk=" << chunk;
    EXPECT_EQ(frames[1], keepalive_wire) << "chunk=" << chunk;
    EXPECT_EQ(frames[2], keepalive_wire) << "chunk=" << chunk;
    EXPECT_EQ(reader.buffered(), 0u) << "chunk=" << chunk;
  }

  // A backlog of many frames plus the first bytes of the next header in
  // one append: every whole frame comes out in order and the partial
  // header waits for the rest of its message.
  std::vector<std::uint8_t> backlog;
  for (int i = 0; i < 1000; ++i) backlog.insert(backlog.end(), stream.begin(), stream.end());
  backlog.insert(backlog.end(), keepalive_wire.begin(), keepalive_wire.begin() + 7);
  FrameReader reader;
  reader.append(backlog);
  std::size_t count = 0;
  while (auto frame = reader.next()) {
    EXPECT_EQ(*frame, count % 3 == 0 ? open_wire : keepalive_wire) << "frame " << count;
    ++count;
  }
  EXPECT_EQ(count, 3000u);
  EXPECT_EQ(reader.buffered(), 7u);
  reader.append(keepalive_wire.data() + 7, keepalive_wire.size() - 7);
  EXPECT_EQ(reader.next(), keepalive_wire);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireFrameReader, ThrowsAsSoonAsABadHeaderCompletes) {
  FrameReader reader;
  const auto bad = header_bytes(19, 4, 0x00);  // bad marker
  reader.append(bad.data(), 10);
  EXPECT_EQ(reader.next(), std::nullopt);  // header incomplete: no verdict yet
  reader.append(bad.data() + 10, bad.size() - 10);
  EXPECT_THROW(reader.next(), WireError);
}

TEST(WireFrameReader, PartialFrameYieldsNothing) {
  FrameReader reader;
  const auto keepalive_wire = encode_keepalive();
  reader.append(keepalive_wire.data(), keepalive_wire.size() - 1);
  EXPECT_EQ(reader.next(), std::nullopt);
  reader.append(keepalive_wire.data() + keepalive_wire.size() - 1, 1);
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, keepalive_wire);
}

// ------------------------------------------------------ stale retention

RetentionConfig gr_config() {
  RetentionConfig config;
  config.gr_enabled = true;
  return config;
}

TEST(WireRetention, NoGrMeansImmediateFlush) {
  StaleRetention retention(RetentionConfig{});  // gr_enabled = false
  retention.set_peer_times(2400, 0);
  retention.route_announced(Prefix::parse("198.51.100.0/24"));
  EXPECT_FALSE(retention.session_down(1000));
  EXPECT_EQ(retention.last_flush_reason(), FlushReason::kSessionLoss);
  EXPECT_EQ(retention.routes(), 0u);
}

TEST(WireRetention, GrRetainsUntilRestartExpiry) {
  StaleRetention retention(gr_config());
  retention.set_peer_times(2400, 0);
  retention.route_announced(Prefix::parse("198.51.100.0/24"));
  retention.route_announced(Prefix::parse("203.0.113.0/24"));
  ASSERT_TRUE(retention.session_down(1000));
  EXPECT_EQ(retention.stale_count(), 2u);
  EXPECT_EQ(retention.deadline(), 1000 + 2400);
  EXPECT_TRUE(retention.tick(1000 + 2399).empty());
  const auto flushed = retention.tick(1000 + 2400);
  EXPECT_EQ(flushed.size(), 2u);
  EXPECT_EQ(retention.last_flush_reason(), FlushReason::kRestartExpired);
  EXPECT_EQ(retention.routes(), 0u);
  EXPECT_FALSE(retention.retaining());
}

TEST(WireRetention, ReconnectAndEndOfRibSweepsOnlyStillStaleRoutes) {
  StaleRetention retention(gr_config());
  retention.set_peer_times(2400, 0);
  retention.route_announced(Prefix::parse("198.51.100.0/24"));
  retention.route_announced(Prefix::parse("203.0.113.0/24"));
  ASSERT_TRUE(retention.session_down(1000));
  retention.session_up(1500);
  EXPECT_EQ(retention.deadline(), 0) << "reconnect stops the restart clock";
  // The peer re-announces one of the two before End-of-RIB.
  retention.route_announced(Prefix::parse("198.51.100.0/24"));
  const auto swept = retention.end_of_rib();
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(swept[0], Prefix::parse("203.0.113.0/24"));
  EXPECT_EQ(retention.last_flush_reason(), FlushReason::kEndOfRib);
  EXPECT_EQ(retention.routes(), 1u);
  EXPECT_EQ(retention.stale_count(), 0u);
}

TEST(WireRetention, LlgrExtendsRetentionPastRestartWindow) {
  RetentionConfig config;
  config.gr_enabled = true;
  config.llgr_enabled = true;
  StaleRetention retention(config);
  retention.set_peer_times(600, 86400);
  retention.route_announced(Prefix::parse("198.51.100.0/24"));
  ASSERT_TRUE(retention.session_down(1000));
  EXPECT_EQ(retention.deadline(), 1000 + 600);
  // Restart window ends: routes survive into the LLGR phase.
  EXPECT_TRUE(retention.tick(1000 + 600).empty());
  EXPECT_TRUE(retention.retaining());
  EXPECT_EQ(retention.deadline(), 1000 + 600 + 86400);
  const auto flushed = retention.tick(1000 + 600 + 86400);
  EXPECT_EQ(flushed.size(), 1u);
  EXPECT_EQ(retention.last_flush_reason(), FlushReason::kLlgrExpired);
}

TEST(WireRetention, ConfigCapsClampPeerAdvertisedTimes) {
  RetentionConfig config;
  config.gr_enabled = true;
  config.max_restart_time = 300;
  config.llgr_enabled = true;
  config.max_llgr_stale_time = 3600;
  StaleRetention retention(config);
  retention.set_peer_times(4095, 86400);
  EXPECT_EQ(retention.effective_restart_time(), 300);
  EXPECT_EQ(retention.effective_llgr_stale_time(), 3600);
}

TEST(WireRetention, WithdrawnRoutesAreNotRetained) {
  StaleRetention retention(gr_config());
  retention.set_peer_times(2400, 0);
  retention.route_announced(Prefix::parse("198.51.100.0/24"));
  retention.route_withdrawn(Prefix::parse("198.51.100.0/24"));
  EXPECT_TRUE(retention.session_down(1000)) << "GR still arms the window";
  EXPECT_EQ(retention.routes(), 0u) << "but nothing is retained";
  EXPECT_EQ(retention.stale_count(), 0u);
}

TEST(WireRetention, FlushReasonNames) {
  EXPECT_EQ(to_string(FlushReason::kSessionLoss), "session-loss");
  EXPECT_EQ(to_string(FlushReason::kEndOfRib), "end-of-rib");
  EXPECT_EQ(to_string(FlushReason::kRestartExpired), "restart-expired");
  EXPECT_EQ(to_string(FlushReason::kLlgrExpired), "llgr-expired");
}

// ----------------------------------------------- collision resolution

TEST(WireCollision, HigherBgpIdInitiatedConnectionSurvives) {
  using bgp::SessionFsm;
  // RFC 4271 §6.8: the connection initiated by the speaker with the
  // higher BGP Identifier is preserved.
  // Local id higher, local initiated: keep ours.
  EXPECT_FALSE(SessionFsm::collision_close_local(20, 10, true));
  // Local id higher, remote initiated: close the remote's (keep none of
  // ours to close -> close_local is false only for OUR initiated one).
  EXPECT_TRUE(SessionFsm::collision_close_local(20, 10, false));
  // Remote id higher, local initiated: our connection loses.
  EXPECT_TRUE(SessionFsm::collision_close_local(10, 20, true));
  // Remote id higher, remote initiated: their connection wins, keep it.
  EXPECT_FALSE(SessionFsm::collision_close_local(10, 20, false));
}

// ------------------------------------------------------ bridge sideband

TEST(WireBridge, StampRoundTripsAndRestoresTheUpdate) {
  bgp::UpdateMessage update;
  update.announced.push_back(Prefix::parse("203.0.113.0/24"));
  update.attributes.as_path = bgp::AsPath{65001};
  update.attributes.next_hop = IpAddress::parse("192.0.2.1");
  const bgp::UpdateMessage original = update;

  stamp_update(update, BridgeStamp{1717171717, 42});
  EXPECT_NE(update, original) << "stamp must actually attach";
  const auto stamp = extract_stamp(update);
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(stamp->timestamp, 1717171717);
  EXPECT_EQ(stamp->sequence, 42u);
  EXPECT_EQ(update, original) << "extract must restore the archive image";
  EXPECT_EQ(extract_stamp(update), std::nullopt);
}

TEST(WireBridge, StampSurvivesTheWireOnWithdrawalOnlyUpdates) {
  // The update codec must write unknown attributes even when there is
  // no reachability — otherwise withdrawal ordering dies on the wire.
  bgp::UpdateMessage update;
  update.withdrawn.push_back(Prefix::parse("198.51.100.0/24"));
  stamp_update(update, BridgeStamp{1700000000, 7});
  auto decoded = decode_update(as_span(encode_update(update)));
  const auto stamp = extract_stamp(decoded);
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(stamp->timestamp, 1700000000);
  EXPECT_EQ(stamp->sequence, 7u);
}

TEST(WireBridge, StateUpdateCarriesTheTransition) {
  auto update = make_state_update(6, 1, BridgeStamp{1700000100, 9});
  auto decoded = decode_update(as_span(encode_update(update)));
  const auto stamp = extract_stamp(decoded);
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(stamp->sequence, 9u);
  const auto state = extract_state(decoded);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->first, 6);
  EXPECT_EQ(state->second, 1);
  EXPECT_TRUE(decoded.withdrawn.empty());
  EXPECT_TRUE(decoded.announced.empty());
}

TEST(WireBridge, ExtractStateOnPlainUpdateIsNullopt) {
  bgp::UpdateMessage update;
  update.announced.push_back(Prefix::parse("203.0.113.0/24"));
  EXPECT_EQ(extract_state(update), std::nullopt);
}

}  // namespace
}  // namespace zombiescope::wire
