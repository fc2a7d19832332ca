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

// The stamp attribute's 16-byte payload: timestamp, then sequence,
// both big-endian u64.
void write_stamp(std::vector<std::uint8_t>& payload, const BridgeStamp& stamp) {
  payload.resize(16);
  const auto timestamp = static_cast<std::uint64_t>(stamp.timestamp);
  for (int i = 0; i < 8; ++i) {
    payload[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(timestamp >> (56 - 8 * i));
    payload[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(stamp.sequence >> (56 - 8 * i));
  }
}

// Appends `update`, with `extra` attributes, to `out` and returns its
// size when it encodes to at most kMaxMessageSize bytes. Otherwise
// returns 0 with `out` as it was: a message too long for even the BGP
// length field, whose encode throws, does not fit either, and neither
// does one the codec refuses (its parts' encode then says why).
std::size_t append_if_fits(std::vector<std::uint8_t>& out, const bgp::UpdateMessage& update,
                           std::span<const bgp::RawAttribute> extra = {}) {
  const std::size_t start = out.size();
  try {
    update.encode_into(out, extra);
  } catch (const netbase::DecodeError&) {
    return 0;
  }
  const std::size_t size = out.size() - start;
  if (size <= kMaxMessageSize) return size;
  out.resize(start);
  return 0;
}

}  // namespace

void stamp_update(bgp::UpdateMessage& update, const BridgeStamp& stamp) {
  bgp::RawAttribute attribute{kBridgeAttrFlags, kAttrBridgeStamp, {}};
  write_stamp(attribute.payload, stamp);
  update.attributes.unknown.push_back(std::move(attribute));
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
  // One buffer, with room for any message that fits, serves every fit
  // check: each is a single encode.
  std::vector<std::uint8_t> encoded;
  encoded.reserve(kMaxMessageSize);
  const auto fits = [&encoded](const bgp::UpdateMessage& message) {
    encoded.clear();
    return append_if_fits(encoded, message) > 0;
  };
  if (fits(update)) return {std::move(update)};
  // Withdrawals carry no attributes: peel them into their own messages
  // first, then the announcements, each part sharing the attribute
  // set. Parts hold 128 prefixes, halved while a part does not fit (a
  // pathological attribute set) down to a single prefix.
  std::vector<bgp::UpdateMessage> parts;
  std::size_t chunk = 128;
  const auto add_parts = [&](const std::vector<netbase::Prefix>& prefixes, bool announce) {
    for (std::size_t i = 0; i < prefixes.size();) {
      bgp::UpdateMessage part;
      if (announce) part.attributes = update.attributes;
      auto& routes = announce ? part.announced : part.withdrawn;
      for (;;) {
        const auto first = prefixes.begin() + static_cast<std::ptrdiff_t>(i);
        routes.assign(first, first + static_cast<std::ptrdiff_t>(
                                         std::min(chunk, prefixes.size() - i)));
        if (routes.size() == 1 || fits(part)) break;
        chunk /= 2;
      }
      i += routes.size();
      parts.push_back(std::move(part));
    }
  };
  add_parts(update.withdrawn, /*announce=*/false);
  add_parts(update.announced, /*announce=*/true);
  return parts;
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

  // One blocking socket per peer, in the order they opened, and the
  // encoded messages each has not written yet. Every socket is closed
  // on the way out, when a send or a handshake throws too.
  struct Session {
    int fd = -1;
    std::vector<std::uint8_t> pending;
  };
  struct Sessions {
    std::vector<Session> list;
    Sessions() = default;
    Sessions(const Sessions&) = delete;
    Sessions& operator=(const Sessions&) = delete;
    ~Sessions() {
      for (const Session& session : list) ::close(session.fd);
    }
  } opened;
  std::vector<Session>& sessions = opened.list;
  using PeerKey = std::pair<std::uint32_t, netbase::IpAddress>;
  std::map<PeerKey, std::size_t> session_of;

  auto session_for = [&](std::uint32_t asn, const netbase::IpAddress& address) -> Session& {
    const PeerKey key{asn, address};
    auto it = session_of.find(key);
    if (it != session_of.end()) return sessions[it->second];
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
    session_of.emplace(key, sessions.size());
    return sessions.emplace_back(Session{fd, {}});
  };

  // Messages queue per session and go out in bursts: once the queued
  // bytes of all sessions reach kBurstBytes, each session writes its
  // queue with one blocking send. The collector never blocks on this
  // client (its loop is non-blocking), so the writes cannot deadlock;
  // its KEEPALIVEs wait in the receive buffer until the close. Writing
  // every session at once keeps their streams close in sequence, which
  // keeps the receiver's reorder heap shallow.
  constexpr std::size_t kBurstBytes = 16 * 1024;
  std::size_t queued_bytes = 0;
  auto flush = [&] {
    for (Session& session : sessions) {
      if (session.pending.empty()) continue;
      send_message(session.fd, session.pending);
      session.pending.clear();
    }
    queued_bytes = 0;
  };
  auto queued = [&](std::size_t size) {
    stats.bytes_sent += size;
    ++stats.messages_sent;
    queued_bytes += size;
    if (queued_bytes >= kBurstBytes) flush();
  };

  // The stamp rides as an extra attribute of the encode, rewritten in
  // place for each message: the archive's update is never copied.
  bgp::RawAttribute stamp{kBridgeAttrFlags, kAttrBridgeStamp, {}};
  const std::span<const bgp::RawAttribute> extra =
      options.stamp ? std::span<const bgp::RawAttribute>(&stamp, 1)
                    : std::span<const bgp::RawAttribute>();

  std::uint64_t sequence = 0;
  for (const mrt::MrtRecord& record : records) {
    if (const auto* message = std::get_if<mrt::Bgp4mpMessage>(&record)) {
      Session& session = session_for(message->peer_asn, message->peer_address);
      write_stamp(stamp.payload, BridgeStamp{message->timestamp, sequence});
      if (const std::size_t size = append_if_fits(session.pending, message->update, extra)) {
        ++sequence;
        ++stats.updates_sent;
        queued(size);
        continue;
      }
      // Over the 4096-byte ceiling: send wire-legal parts, each with a
      // stamp of its own.
      auto parts = split_update(message->update);
      if (parts.size() > 1) ++stats.splits;
      for (const bgp::UpdateMessage& part : parts) {
        write_stamp(stamp.payload, BridgeStamp{message->timestamp, sequence++});
        const std::size_t size = encode_update_into(session.pending, part, extra);
        ++stats.updates_sent;
        queued(size);
      }
    } else if (const auto* change = std::get_if<mrt::Bgp4mpStateChange>(&record)) {
      Session& session = session_for(change->peer_asn, change->peer_address);
      const bgp::UpdateMessage update = make_state_update(
          static_cast<std::uint16_t>(change->old_state),
          static_cast<std::uint16_t>(change->new_state),
          BridgeStamp{change->timestamp, sequence++});
      const std::size_t size = encode_update_into(session.pending, update);
      ++stats.state_changes_sent;
      queued(size);
    }
    // PeerIndexTable / RibEntryRecord carry no per-message wire form.
  }
  flush();

  // Cease on every session, then read until the collector closes it,
  // so nothing is left unread (closing on unread input resets the
  // connection, which can discard output not yet delivered).
  NotificationMessage goodbye;
  goodbye.code = NotifyCode::kCease;
  goodbye.subcode = kCeaseAdminShutdown;
  const auto goodbye_wire = goodbye.encode();
  for (const Session& session : sessions) {
    try {
      send_message(session.fd, goodbye_wire);
      stats.bytes_sent += goodbye_wire.size();
      ++stats.messages_sent;
    } catch (const std::runtime_error&) {
    }
  }
  for (const Session& session : sessions) {
    char buf[4096];
    while (netbase::recv_some(session.fd, buf, sizeof(buf)) > 0) {
    }
  }
  return stats;
}

}  // namespace zombiescope::wire
