#include "wire/bridge.hpp"

#include <unistd.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "netbase/bytes.hpp"
#include "netbase/reactor.hpp"
#include "wire/message.hpp"

namespace zombiescope::wire {

namespace {

// Optional-transitive so a conforming speaker in the middle would pass
// them through; partial bit clear (we are the originator).
constexpr std::uint8_t kBridgeAttrFlags = 0xc0;

std::vector<std::uint8_t> encode_stamp(const BridgeStamp& stamp) {
  netbase::ByteWriter writer;
  writer.u64(static_cast<std::uint64_t>(stamp.timestamp));
  writer.u64(stamp.sequence);
  return std::move(writer).take();
}

}  // namespace

void stamp_update(bgp::UpdateMessage& update, const BridgeStamp& stamp) {
  update.attributes.unknown.push_back(
      bgp::RawAttribute{kBridgeAttrFlags, kAttrBridgeStamp, encode_stamp(stamp)});
}

std::optional<BridgeStamp> extract_stamp(bgp::UpdateMessage& update) {
  auto& unknown = update.attributes.unknown;
  for (auto it = unknown.begin(); it != unknown.end(); ++it) {
    if (it->type != kAttrBridgeStamp) continue;
    if (it->payload.size() != 16) return std::nullopt;
    netbase::ByteReader reader(it->payload);
    BridgeStamp stamp;
    stamp.timestamp = static_cast<netbase::TimePoint>(reader.u64());
    stamp.sequence = reader.u64();
    unknown.erase(it);
    return stamp;
  }
  return std::nullopt;
}

bgp::UpdateMessage make_state_update(std::uint16_t old_state,
                                     std::uint16_t new_state,
                                     const BridgeStamp& stamp) {
  bgp::UpdateMessage update;
  netbase::ByteWriter writer;
  writer.u16(old_state);
  writer.u16(new_state);
  update.attributes.unknown.push_back(bgp::RawAttribute{
      kBridgeAttrFlags, kAttrBridgeState, std::move(writer).take()});
  stamp_update(update, stamp);
  return update;
}

std::optional<std::pair<std::uint16_t, std::uint16_t>> extract_state(
    bgp::UpdateMessage& update) {
  auto& unknown = update.attributes.unknown;
  for (auto it = unknown.begin(); it != unknown.end(); ++it) {
    if (it->type != kAttrBridgeState) continue;
    if (it->payload.size() != 4) return std::nullopt;
    netbase::ByteReader reader(it->payload);
    const std::uint16_t old_state = reader.u16();
    const std::uint16_t new_state = reader.u16();
    unknown.erase(it);
    return std::make_pair(old_state, new_state);
  }
  return std::nullopt;
}

std::vector<bgp::UpdateMessage> split_update(bgp::UpdateMessage update) {
  if (update.encode().size() <= kMaxMessageSize) return {std::move(update)};
  std::vector<bgp::UpdateMessage> parts;
  // Withdrawals carry no attributes: peel them into their own
  // messages first, a few hundred prefixes at a time.
  constexpr std::size_t kChunk = 128;
  for (std::size_t i = 0; i < update.withdrawn.size(); i += kChunk) {
    bgp::UpdateMessage part;
    part.withdrawn.assign(
        update.withdrawn.begin() + static_cast<std::ptrdiff_t>(i),
        update.withdrawn.begin() +
            static_cast<std::ptrdiff_t>(std::min(i + kChunk, update.withdrawn.size())));
    parts.push_back(std::move(part));
  }
  for (std::size_t i = 0; i < update.announced.size(); i += kChunk) {
    bgp::UpdateMessage part;
    part.attributes = update.attributes;
    part.announced.assign(
        update.announced.begin() + static_cast<std::ptrdiff_t>(i),
        update.announced.begin() +
            static_cast<std::ptrdiff_t>(std::min(i + kChunk, update.announced.size())));
    parts.push_back(std::move(part));
  }
  // A pathological attribute set could still overflow; recurse until
  // every part fits or cannot shrink further.
  std::vector<bgp::UpdateMessage> fitted;
  for (auto& part : parts) {
    if (part.encode().size() <= kMaxMessageSize ||
        part.withdrawn.size() + part.announced.size() <= 1) {
      fitted.push_back(std::move(part));
      continue;
    }
    for (auto& sub : split_update(std::move(part))) fitted.push_back(std::move(sub));
  }
  return fitted;
}

int wire_connect(const std::string& host, std::uint16_t port) {
  const int fd = netbase::connect_tcp(host, port);
  if (fd < 0)
    throw std::runtime_error("bridge: connect to " + host + ":" +
                             std::to_string(port) + " failed");
  return fd;
}

namespace {

void send_message(int fd, const std::vector<std::uint8_t>& wire) {
  if (!netbase::send_all(fd, netbase::as_chars(wire)))
    throw std::runtime_error("bridge: send failed");
}

/// Blocking read of the next complete BGP message.
std::vector<std::uint8_t> read_message(int fd, FrameReader& reader) {
  for (;;) {
    if (auto frame = reader.next()) return std::move(*frame);
    char buf[4096];
    const std::ptrdiff_t n = netbase::recv_some(fd, buf, sizeof(buf));
    if (n <= 0) throw std::runtime_error("bridge: peer closed during handshake");
    reader.append(reinterpret_cast<const std::uint8_t*>(buf),
                  static_cast<std::size_t>(n));
  }
}

}  // namespace

void wire_handshake(int fd, std::uint32_t asn, std::uint32_t bgp_id,
                    netbase::Duration hold_time,
                    const std::optional<netbase::IpAddress>& logical_address) {
  OpenMessage open;
  open.asn = asn;
  open.hold_time = static_cast<std::uint16_t>(
      std::clamp<netbase::Duration>(hold_time, 3, 0xffff));
  open.bgp_id = bgp_id;
  open.cap_four_octet_asn = true;
  open.multiprotocol = {{1, 1}, {2, 1}};
  open.bridge_peer_address = logical_address;
  send_message(fd, open.encode());

  FrameReader reader;
  bool saw_open = false;
  bool saw_keepalive = false;
  bool keepalive_sent = false;
  while (!saw_open || !saw_keepalive) {
    const auto frame = read_message(fd, reader);
    const MessageHeader header = decode_header(frame);
    if (header.type == bgp::MessageType::kOpen) {
      OpenMessage::decode(frame);  // validate; contents are not needed
      saw_open = true;
      if (!keepalive_sent) {
        send_message(fd, encode_keepalive());
        keepalive_sent = true;
      }
    } else if (header.type == bgp::MessageType::kKeepalive) {
      saw_keepalive = true;
    } else if (header.type == bgp::MessageType::kNotification) {
      throw std::runtime_error("bridge: handshake refused: " +
                               NotificationMessage::decode(frame).to_string());
    }
  }
}

BridgeStats replay_over_wire(std::span<const mrt::MrtRecord> records,
                             const std::string& host, std::uint16_t port,
                             const BridgeOptions& options) {
  BridgeStats stats;

  using PeerKey = std::pair<std::uint32_t, netbase::IpAddress>;
  std::map<PeerKey, int> sessions;  // one blocking socket per peer

  auto session_for = [&](std::uint32_t asn, const netbase::IpAddress& address) {
    const PeerKey key{asn, address};
    auto it = sessions.find(key);
    if (it != sessions.end()) return it->second;
    const int fd = wire_connect(host, port);
    // BGP ID derived from the logical address so collisions resolve
    // deterministically across bridge sessions.
    std::uint32_t bgp_id = 0;
    const auto& bytes = address.bytes();
    for (int i = 0; i < address.byte_length(); ++i)
      bgp_id = bgp_id * 31 + bytes[static_cast<std::size_t>(i)];
    if (bgp_id == 0) bgp_id = 1;
    try {
      wire_handshake(fd, asn == 0 ? options.fallback_asn : asn, bgp_id,
                     options.hold_time, address);
    } catch (...) {
      ::close(fd);
      throw;
    }
    ++stats.sessions;
    return sessions.emplace(key, fd).first->second;
  };

  // One blocking write per message. The collector never blocks on this
  // client (its loop is non-blocking), so the writes cannot deadlock;
  // its KEEPALIVEs wait in the receive buffer until the close.
  auto send_blocking = [&](int fd, const std::vector<std::uint8_t>& wire) {
    send_message(fd, wire);
    stats.bytes_sent += wire.size();
    ++stats.messages_sent;
  };

  std::uint64_t sequence = 0;
  for (const mrt::MrtRecord& record : records) {
    if (const auto* message = std::get_if<mrt::Bgp4mpMessage>(&record)) {
      const int fd = session_for(message->peer_asn, message->peer_address);
      auto parts = split_update(message->update);
      if (parts.size() > 1) ++stats.splits;
      for (bgp::UpdateMessage& part : parts) {
        if (options.stamp)
          stamp_update(part, BridgeStamp{message->timestamp, sequence});
        ++sequence;
        send_blocking(fd, encode_update(part));
        ++stats.updates_sent;
      }
    } else if (const auto* change = std::get_if<mrt::Bgp4mpStateChange>(&record)) {
      const int fd = session_for(change->peer_asn, change->peer_address);
      bgp::UpdateMessage update = make_state_update(
          static_cast<std::uint16_t>(change->old_state),
          static_cast<std::uint16_t>(change->new_state),
          BridgeStamp{change->timestamp, sequence});
      ++sequence;
      send_blocking(fd, encode_update(update));
      ++stats.state_changes_sent;
    }
    // PeerIndexTable / RibEntryRecord carry no per-message wire form.
  }

  NotificationMessage goodbye;
  goodbye.code = NotifyCode::kCease;
  goodbye.subcode = kCeaseAdminShutdown;
  const auto goodbye_wire = goodbye.encode();
  for (const auto& [key, fd] : sessions) {
    // Read what the collector sent first: closing a socket with unread
    // input resets the connection, which can discard output not yet
    // delivered.
    char buf[4096];
    while (netbase::recv_some(fd, buf, sizeof(buf), /*wait=*/false) > 0) {
    }
    try {
      send_blocking(fd, goodbye_wire);
    } catch (const std::runtime_error&) {
    }
    ::close(fd);
  }
  return stats;
}

}  // namespace zombiescope::wire
