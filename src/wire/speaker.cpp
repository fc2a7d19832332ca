#include "wire/speaker.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "netbase/json.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace zombiescope::wire {

namespace {

netbase::TimePoint steady_seconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

netbase::TimePoint system_seconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

bgp::SessionState mrt_state(bgp::FsmState state) {
  switch (state) {
    case bgp::FsmState::kIdle:
      return bgp::SessionState::kIdle;
    case bgp::FsmState::kConnect:
      return bgp::SessionState::kConnect;
    case bgp::FsmState::kOpenSent:
      return bgp::SessionState::kOpenSent;
    case bgp::FsmState::kOpenConfirm:
      return bgp::SessionState::kOpenConfirm;
    case bgp::FsmState::kEstablished:
      return bgp::SessionState::kEstablished;
  }
  return bgp::SessionState::kIdle;
}

struct WireMetrics {
  obs::Counter msgs_in;
  obs::Counter msgs_out;
  obs::Counter updates_in;
  obs::Counter notify_in;
  obs::Counter notify_out;
  obs::Counter sessions_opened;
  obs::Counter sessions_closed;
  obs::Counter collisions;
  obs::Counter decode_errors;
  obs::Counter gr_retained_routes;
  obs::Counter gr_flushed_routes;
  obs::Gauge established;
  obs::Gauge stale_routes;

  static WireMetrics& get() {
    static WireMetrics m = [] {
      auto& r = obs::Registry::global();
      WireMetrics w;
      w.msgs_in = r.counter("zs_wire_messages_in_total");
      w.msgs_out = r.counter("zs_wire_messages_out_total");
      w.updates_in = r.counter("zs_wire_updates_in_total");
      w.notify_in = r.counter("zs_wire_notifications_in_total");
      w.notify_out = r.counter("zs_wire_notifications_out_total");
      w.sessions_opened = r.counter("zs_wire_sessions_opened_total");
      w.sessions_closed = r.counter("zs_wire_sessions_closed_total");
      w.collisions = r.counter("zs_wire_collisions_total");
      w.decode_errors = r.counter("zs_wire_decode_errors_total");
      w.gr_retained_routes = r.counter("zs_wire_gr_retained_routes_total");
      w.gr_flushed_routes = r.counter("zs_wire_gr_flushed_routes_total");
      w.established = r.gauge("zs_wire_sessions_established");
      w.stale_routes = r.gauge("zs_wire_stale_routes");
      return w;
    }();
    return m;
  }
};

void journal_session_event(obs::JournalEventType type, const SessionRef& ref,
                           std::int64_t a, std::int64_t b, std::int64_t c = 0) {
  auto& journal = obs::Journal::global();
  if (!journal.enabled(obs::kCatSession)) return;
  obs::JournalEvent event;
  event.type = type;
  event.time = system_seconds();
  event.has_peer = true;
  event.peer_asn = ref.peer_asn;
  event.peer_address = ref.peer_address;
  event.a = a;
  event.b = b;
  event.c = c;
  journal.emit<obs::kCatSession>(event);
}

}  // namespace

// --- internal structs ------------------------------------------------

struct BgpSpeaker::Session {
  explicit Session(const bgp::FsmConfig& fsm_config,
                   const RetentionConfig& retention_config)
      : fsm(fsm_config), retention(retention_config) {}

  ConnId id = 0;
  bool passive = true;
  bool connecting = false;  // non-blocking connect still in flight
  std::size_t active_index = static_cast<std::size_t>(-1);
  bool dead = false;
  bool peer_notified = false;  // peer already got / sent a NOTIFICATION

  bgp::SessionFsm fsm;
  bgp::FsmState prev_state = bgp::FsmState::kIdle;
  bool was_established = false;
  bool bridge_opened = false;  // a bridge session reported at its OPEN

  FrameReader reader;

  std::optional<OpenMessage> peer_open;
  netbase::IpAddress socket_address;
  netbase::IpAddress logical_address;
  bgp::Asn peer_asn = 0;
  bool bridged = false;

  StaleRetention retention;
  std::uint64_t messages_in = 0;
  std::uint64_t messages_out = 0;
  std::uint64_t updates_in = 0;
  std::uint64_t updates_out = 0;
  std::string last_event = "accepted";
};

struct BgpSpeaker::Ghost {
  SessionRef ref;
  StaleRetention retention;
};

struct BgpSpeaker::ActivePeer {
  std::string host;
  std::uint16_t port = 0;
  netbase::TimePoint next_attempt = 0;
  ConnId session_id = 0;  // 0 = not dialed
};

// --- construction ----------------------------------------------------

BgpSpeaker::BgpSpeaker(SpeakerConfig config, bool listen, std::uint16_t port)
    : config_(config) {
  if (listen && !reactor_.listen(port))
    throw std::runtime_error("zswire: cannot bind BGP port " + std::to_string(port));
}

BgpSpeaker::~BgpSpeaker() = default;

void BgpSpeaker::connect_to(const std::string& host, std::uint16_t port) {
  {
    std::lock_guard<std::mutex> lock(active_mutex_);
    active_peers_.push_back(ActivePeer{host, port, 0, 0});
  }
  reactor_.wake();  // dial now, not at the loop's next deadline
}

netbase::TimePoint BgpSpeaker::wall_now() const { return steady_seconds(); }

SessionRef BgpSpeaker::ref_of(const Session& session) const {
  SessionRef ref;
  ref.id = session.id;
  ref.peer_asn = session.peer_asn;
  ref.peer_address = session.logical_address;
  ref.bridged = session.bridged;
  return ref;
}

std::vector<std::uint8_t> BgpSpeaker::encode_local_open() const {
  OpenMessage open;
  open.asn = config_.local_asn;
  open.hold_time = static_cast<std::uint16_t>(
      std::clamp<netbase::Duration>(config_.hold_time, 0, 0xffff));
  open.bgp_id = config_.bgp_id;
  open.cap_four_octet_asn = true;
  open.cap_route_refresh = config_.advertise_route_refresh;
  open.multiprotocol = {{1, 1}, {2, 1}};  // IPv4 + IPv6 unicast
  if (config_.retention.gr_enabled) {
    GracefulRestart gr;
    gr.restart_time = static_cast<std::uint16_t>(
        std::clamp<netbase::Duration>(config_.advertised_restart_time, 0, 0xfff));
    gr.tuples = {{1, 1, true}, {2, 1, true}};
    open.graceful_restart = std::move(gr);
    if (config_.retention.llgr_enabled &&
        config_.advertised_llgr_stale_time > 0) {
      LongLivedGracefulRestart llgr;
      const auto stale = static_cast<std::uint32_t>(std::clamp<netbase::Duration>(
          config_.advertised_llgr_stale_time, 0, 0xffffff));
      llgr.tuples = {{1, 1, stale}, {2, 1, stale}};
      open.llgr = std::move(llgr);
    }
  }
  return open.encode();
}

BgpSpeaker::Session* BgpSpeaker::find_session(ConnId id) {
  for (const auto& session : sessions_)
    if (session->id == id && !session->dead) return session.get();
  return nullptr;
}

std::unique_ptr<BgpSpeaker::Session> BgpSpeaker::new_session(ConnId id,
                                                             bool passive) const {
  bgp::FsmConfig fsm_config;
  fsm_config.hold_time = config_.hold_time;
  fsm_config.keepalive_interval = config_.keepalive_interval;
  fsm_config.send_hold_time = config_.send_hold_time;
  if (!passive) fsm_config.connect_retry = config_.connect_retry;
  auto session = std::make_unique<Session>(fsm_config, config_.retention);
  session->id = id;
  session->passive = passive;
  WireMetrics::get().sessions_opened.inc();
  return session;
}

// --- the session loop ------------------------------------------------

void BgpSpeaker::run() {
  // On stop the reactor ends every session through on_close(kStopped),
  // which says goodbye.
  reactor_.run(*this);
  std::erase_if(sessions_, [](const auto& s) { return s->dead; });
  rebuild_snapshot();
}

void BgpSpeaker::dial_due_peers(netbase::TimePoint now) {
  std::lock_guard<std::mutex> lock(active_mutex_);
  for (std::size_t i = 0; i < active_peers_.size(); ++i) {
    ActivePeer& peer = active_peers_[i];
    if (peer.session_id != 0 || now < peer.next_attempt) continue;
    const ConnId id = reactor_.dial(peer.host, peer.port);
    if (id == 0) {
      peer.next_attempt = now + std::max<netbase::Duration>(config_.connect_retry, 1);
      continue;
    }
    auto session = new_session(id, /*passive=*/false);
    session->connecting = true;
    session->active_index = i;
    session->last_event = "dialing " + peer.host + ":" + std::to_string(peer.port);
    session->fsm.start(now);
    peer.session_id = id;
    sessions_.push_back(std::move(session));
  }
}

void BgpSpeaker::on_open(ConnId id) {
  const netbase::TimePoint now = wall_now();
  Session* session = find_session(id);
  if (session == nullptr) {  // accepted
    sessions_.push_back(new_session(id, /*passive=*/true));
    session = sessions_.back().get();
    session->fsm.start(now);
  } else {  // our dial connected
    session->connecting = false;
    session->last_event = "connected";
  }
  session->socket_address = reactor_.peer_address(id);
  session->logical_address = session->socket_address;
  session->fsm.connected(now);
}

void BgpSpeaker::on_data(ConnId id, std::string_view bytes) {
  Session* session = find_session(id);
  if (session == nullptr) return;
  session->reader.append(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size());
  const netbase::TimePoint now = wall_now();
  try {
    while (auto frame = session->reader.next()) {
      const auto ingest = std::chrono::steady_clock::now();
      handle_frame(*session, std::move(*frame), now, ingest);
      if (session->dead) return;
    }
  } catch (const WireError& e) {
    WireMetrics::get().decode_errors.inc();
    send_notification(*session, e.code(), e.subcode());
    teardown(*session, std::string("decode error: ") + e.what(), now);
  } catch (const netbase::DecodeError& e) {
    WireMetrics::get().decode_errors.inc();
    send_notification(*session, NotifyCode::kMessageHeaderError, 0);
    teardown(*session, std::string("decode error: ") + e.what(), now);
  }
}

void BgpSpeaker::on_close(ConnId id, netbase::Reactor::Closed why) {
  using Closed = netbase::Reactor::Closed;
  Session* session = find_session(id);
  if (session == nullptr) return;  // already torn down
  if (why == Closed::kStopped) {
    // Graceful exit: tell the peer we are going away.
    send_notification(*session, NotifyCode::kCease, kCeaseAdminShutdown);
    teardown(*session, "administrative stop", wall_now());
  } else {
    teardown(*session, why == Closed::kConnectFailed ? "connect failed"
                       : why == Closed::kOverflow    ? "send buffer overflow"
                                                     : "connection closed by peer",
             wall_now());
  }
}

BgpSpeaker::Clock::time_point BgpSpeaker::on_turn(Clock::time_point clock_now) {
  const auto now = std::chrono::duration_cast<std::chrono::seconds>(
                       clock_now.time_since_epoch())
                       .count();
  dial_due_peers(now);
  // Timers, then outbound bytes for everyone.
  for (auto& sp : sessions_) {
    Session& session = *sp;
    if (session.dead) continue;
    const bgp::FsmState before = session.fsm.state();
    session.fsm.tick(now);
    if (session.fsm.state() != before) sync_fsm_state(session, now);
    if (session.dead) continue;
    // Active dial attempts that outlived the ConnectRetry timer are
    // abandoned and re-dialed by dial_due_peers next round.
    if (session.connecting && session.fsm.connect_retries() > 0) {
      teardown(session, "connect retry", now);
      continue;
    }
    pump_fsm_out(session, now);
    // Socket-level RFC 9687: the peer accepted none of our bytes for
    // send_hold_time.
    const auto stalled = config_.send_hold_time > 0 ? reactor_.stalled_since(session.id)
                                                    : std::nullopt;
    if (stalled && clock_now - *stalled >= std::chrono::seconds(config_.send_hold_time)) {
      send_notification(session, NotifyCode::kSendHoldTimerExpired, 0);
      teardown(session, "send hold timer expired (RFC 9687)", now);
    }
  }

  tick_ghosts(now);
  std::erase_if(sessions_, [](const auto& s) { return s->dead; });
  rebuild_snapshot();
  return next_deadline(clock_now);
}

BgpSpeaker::Clock::time_point BgpSpeaker::next_deadline(Clock::time_point now) {
  // The FSM, retention and re-dial clocks count whole seconds.
  const auto at = [](netbase::TimePoint t) {
    return Clock::time_point(std::chrono::seconds(t));
  };
  Clock::time_point next = Clock::time_point::max();
  for (const auto& sp : sessions_) {
    const Session& session = *sp;
    if (session.fsm.queued() > 0) return now;  // more than one drain's worth
    if (const auto t = session.fsm.next_deadline()) next = std::min(next, at(*t));
    if (config_.send_hold_time <= 0) continue;
    if (const auto stalled = reactor_.stalled_since(session.id))
      next = std::min(next, *stalled + std::chrono::seconds(config_.send_hold_time));
  }
  for (const Ghost& ghost : ghosts_)
    if (ghost.retention.retaining()) next = std::min(next, at(ghost.retention.deadline()));
  std::lock_guard<std::mutex> lock(active_mutex_);
  for (const ActivePeer& peer : active_peers_)
    if (peer.session_id == 0) next = std::min(next, at(peer.next_attempt));
  return next;
}

void BgpSpeaker::handle_frame(Session& session, std::vector<std::uint8_t> frame,
                              netbase::TimePoint now,
                              std::chrono::steady_clock::time_point ingest) {
  ++session.messages_in;
  WireMetrics::get().msgs_in.inc();
  const MessageHeader header = decode_header(frame);
  const bgp::FsmState before = session.fsm.state();
  switch (header.type) {
    case bgp::MessageType::kOpen: {
      OpenMessage open = OpenMessage::decode(frame);
      handle_open(session, std::move(open), now);
      break;
    }
    case bgp::MessageType::kKeepalive:
      session.fsm.receive(now, bgp::FsmMessage{bgp::MessageType::kKeepalive,
                                               std::nullopt, std::nullopt});
      break;
    case bgp::MessageType::kUpdate: {
      bgp::UpdateMessage update = decode_update(frame);
      ++session.updates_in;
      WireMetrics::get().updates_in.inc();
      session.fsm.receive(now, bgp::FsmMessage{bgp::MessageType::kUpdate,
                                               std::nullopt, std::nullopt});
      // End-of-RIB (RFC 4724 §2): the empty UPDATE. After a GR
      // reconnect it sweeps every route the peer did not refresh.
      const bool end_of_rib = update.withdrawn.empty() && update.announced.empty() &&
                              update.attributes == bgp::PathAttributes{};
      if (end_of_rib) {
        auto flushed = session.retention.end_of_rib();
        if (!flushed.empty()) {
          WireMetrics::get().gr_flushed_routes.inc(flushed.size());
          journal_session_event(obs::JournalEventType::kWireGrFlushed,
                                ref_of(session),
                                static_cast<std::int64_t>(flushed.size()),
                                static_cast<std::int64_t>(FlushReason::kEndOfRib));
          session.last_event = "end-of-rib swept " +
                               std::to_string(flushed.size()) + " stale";
          if (on_flush_)
            on_flush_(ref_of(session), std::move(flushed), FlushReason::kEndOfRib);
        }
        break;
      }
      for (const auto& prefix : update.announced)
        session.retention.route_announced(prefix);
      for (const auto& prefix : update.withdrawn)
        session.retention.route_withdrawn(prefix);
      if (on_update_) on_update_(ref_of(session), std::move(update), ingest);
      break;
    }
    case bgp::MessageType::kNotification: {
      const NotificationMessage notification = NotificationMessage::decode(frame);
      WireMetrics::get().notify_in.inc();
      session.peer_notified = true;
      session.last_event = "NOTIFICATION received: " + notification.to_string();
      journal_session_event(obs::JournalEventType::kWireNotifyReceived,
                            ref_of(session),
                            static_cast<std::int64_t>(notification.code),
                            notification.subcode);
      session.fsm.receive(now, bgp::FsmMessage{bgp::MessageType::kNotification,
                                               std::nullopt, std::nullopt});
      break;
    }
  }
  if (!session.dead && session.fsm.state() != before) sync_fsm_state(session, now);
}

void BgpSpeaker::handle_open(Session& session, OpenMessage open,
                             netbase::TimePoint now) {
  session.peer_asn = open.asn;
  session.bridged = open.bridge_peer_address.has_value();
  session.logical_address = session.bridged ? *open.bridge_peer_address
                                            : session.socket_address;
  // Learn the peer's retention windows from its GR/LLGR capabilities.
  netbase::Duration restart_time = 0;
  netbase::Duration llgr_stale = 0;
  if (open.graceful_restart.has_value())
    restart_time = open.graceful_restart->restart_time;
  if (open.llgr.has_value()) {
    for (const LlgrTuple& t : open.llgr->tuples)
      llgr_stale = std::max<netbase::Duration>(llgr_stale, t.stale_time);
  }
  session.retention.set_peer_times(restart_time, llgr_stale);

  // §6.8 collision resolution: a second connection to a peer we are
  // already opening with. The connection initiated by the higher BGP
  // Identifier survives; the other gets Cease/Collision Resolution.
  for (auto& other_ptr : sessions_) {
    Session& other = *other_ptr;
    if (other.id == session.id || other.dead) continue;
    if (!other.peer_open.has_value() && other.passive) continue;
    const bool other_openish = other.fsm.state() == bgp::FsmState::kOpenSent ||
                               other.fsm.state() == bgp::FsmState::kOpenConfirm;
    if (!other_openish) continue;
    const bool same_peer =
        (other.peer_open.has_value() && other.peer_open->bgp_id == open.bgp_id) ||
        (!other.passive && other.socket_address == session.socket_address);
    if (!same_peer) continue;
    WireMetrics::get().collisions.inc();
    // Evaluate for the locally-initiated connection of the pair.
    Session& local_conn = session.passive ? other : session;
    Session& remote_conn = session.passive ? session : other;
    const bool close_ours = bgp::SessionFsm::collision_close_local(
        config_.bgp_id, open.bgp_id, /*local_initiated=*/true);
    Session& loser = close_ours ? local_conn : remote_conn;
    journal_session_event(obs::JournalEventType::kWireCollision, ref_of(session),
                          close_ours ? 0 : 1, static_cast<std::int64_t>(loser.id));
    send_notification(loser, NotifyCode::kCease, kCeaseConnectionCollision);
    teardown(loser, "connection collision resolved", now);
    if (loser.id == session.id) return;
    break;
  }

  session.peer_open = std::move(open);
  bgp::FsmOpen fsm_open;
  fsm_open.hold_time = session.peer_open->hold_time;
  fsm_open.bgp_id = session.peer_open->bgp_id;
  fsm_open.asn = session.peer_open->asn;
  session.fsm.receive(now, bgp::FsmMessage{bgp::MessageType::kOpen, std::nullopt,
                                           fsm_open});
  session.last_event = "OPEN from AS" + std::to_string(session.peer_asn);
}

void BgpSpeaker::sync_fsm_state(Session& session, netbase::TimePoint now) {
  const bgp::FsmState old_state = session.prev_state;
  const bgp::FsmState new_state = session.fsm.state();
  if (old_state == new_state) return;
  session.prev_state = new_state;
  journal_session_event(obs::JournalEventType::kWireSessionState, ref_of(session),
                        static_cast<std::int64_t>(old_state),
                        static_cast<std::int64_t>(new_state));
  if (new_state == bgp::FsmState::kOpenConfirm && session.bridged && !session.bridge_opened) {
    // A bridge client may send records as soon as it has read our
    // KEEPALIVE, before we read its own: it is reported from its OPEN.
    session.bridge_opened = true;
    if (on_state_)
      on_state_(ref_of(session), mrt_state(old_state), mrt_state(new_state), false);
  }
  if (new_state == bgp::FsmState::kEstablished) {
    session.was_established = true;
    session.last_event = "established";
    // A GR peer returning: its ghost's stale routes come home to this
    // session, awaiting re-announcement or the End-of-RIB sweep.
    adopt_or_create_retention(session);
    if (on_state_)
      on_state_(ref_of(session), mrt_state(old_state), mrt_state(new_state),
                false);
    return;
  }
  if (old_state == bgp::FsmState::kEstablished &&
      new_state == bgp::FsmState::kIdle) {
    // The FSM decided the drop (hold timer, send-hold, NOTIFICATION);
    // close the transport to match.
    teardown(session, session.fsm.last_error(), now);
  }
}

void BgpSpeaker::adopt_or_create_retention(Session& session) {
  for (std::size_t i = 0; i < ghosts_.size(); ++i) {
    Ghost& ghost = ghosts_[i];
    if (ghost.ref.peer_asn != session.peer_asn ||
        !(ghost.ref.peer_address == session.logical_address))
      continue;
    WireMetrics::get().stale_routes.add(
        -static_cast<std::int64_t>(session.retention.stale_count()));
    session.retention = std::move(ghost.retention);
    session.retention.session_up(wall_now());
    session.last_event = "GR reconnect: " +
                         std::to_string(session.retention.stale_count()) +
                         " stale await re-sync";
    ghosts_.erase(ghosts_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
}

void BgpSpeaker::pump_fsm_out(Session& session, netbase::TimePoint now) {
  const auto send = [&](const std::vector<std::uint8_t>& wire) {
    reactor_.send(session.id, netbase::as_chars(wire));
  };
  for (bgp::FsmMessage& message : session.fsm.drain(now, 64)) {
    switch (message.type) {
      case bgp::MessageType::kOpen:
        send(encode_local_open());
        break;
      case bgp::MessageType::kKeepalive:
        send(encode_keepalive());
        break;
      case bgp::MessageType::kUpdate:
        if (!message.update.has_value()) break;
        send(encode_update(*message.update));
        ++session.updates_out;
        break;
      case bgp::MessageType::kNotification:
        break;  // NOTIFICATIONs are sent via send_notification()
    }
    ++session.messages_out;
    WireMetrics::get().msgs_out.inc();
  }
}

void BgpSpeaker::send_notification(Session& session, NotifyCode code,
                                   std::uint8_t subcode) {
  if (session.dead || session.peer_notified) return;
  NotificationMessage notification;
  notification.code = code;
  notification.subcode = subcode;
  const auto wire = notification.encode();
  // Best effort: a wedged peer's backlog holds it until the close.
  reactor_.send(session.id, netbase::as_chars(wire));
  WireMetrics::get().notify_out.inc();
  session.last_event = "NOTIFICATION sent: " + notification.to_string();
  journal_session_event(obs::JournalEventType::kWireNotifySent, ref_of(session),
                        static_cast<std::int64_t>(code), subcode);
}

void BgpSpeaker::teardown(Session& session, const std::string& reason,
                          netbase::TimePoint now) {
  if (session.dead) return;
  session.dead = true;
  reactor_.close(session.id);
  WireMetrics::get().sessions_closed.inc();
  session.last_event = reason;
  // Free the active-peer slot for a re-dial.
  if (session.active_index != static_cast<std::size_t>(-1)) {
    std::lock_guard<std::mutex> lock(active_mutex_);
    if (session.active_index < active_peers_.size() &&
        active_peers_[session.active_index].session_id == session.id) {
      active_peers_[session.active_index].session_id = 0;
      active_peers_[session.active_index].next_attempt =
          now + std::max<netbase::Duration>(config_.connect_retry, 1);
    }
  }
  if (!session.was_established) {
    if (session.bridge_opened && on_state_)
      on_state_(ref_of(session), bgp::SessionState::kOpenConfirm, bgp::SessionState::kIdle,
                false);
    return;
  }
  session.was_established = false;

  const SessionRef ref = ref_of(session);
  // The clock counts whole seconds and the loop wakes right at a
  // window's end, so the window starts at the next second: it is never
  // shorter than the peer's restart time.
  const bool retained = session.retention.session_down(now + 1);
  if (retained) {
    WireMetrics::get().gr_retained_routes.inc(session.retention.stale_count());
    WireMetrics::get().stale_routes.add(
        static_cast<std::int64_t>(session.retention.stale_count()));
    journal_session_event(
        obs::JournalEventType::kWireGrRetained, ref,
        static_cast<std::int64_t>(session.retention.stale_count()),
        session.retention.deadline());
    ghosts_.push_back(Ghost{ref, std::move(session.retention)});
  }
  journal_session_event(obs::JournalEventType::kWireSessionState, ref,
                        static_cast<std::int64_t>(bgp::FsmState::kEstablished),
                        static_cast<std::int64_t>(bgp::FsmState::kIdle));
  if (on_state_)
    on_state_(ref, bgp::SessionState::kEstablished, bgp::SessionState::kIdle,
              retained);
}

void BgpSpeaker::tick_ghosts(netbase::TimePoint now) {
  for (auto it = ghosts_.begin(); it != ghosts_.end();) {
    auto flushed = it->retention.tick(now);
    if (flushed.empty()) {
      ++it;
      continue;
    }
    WireMetrics::get().gr_flushed_routes.inc(flushed.size());
    WireMetrics::get().stale_routes.add(-static_cast<std::int64_t>(flushed.size()));
    const FlushReason reason = it->retention.last_flush_reason();
    journal_session_event(obs::JournalEventType::kWireGrFlushed, it->ref,
                          static_cast<std::int64_t>(flushed.size()),
                          static_cast<std::int64_t>(reason));
    if (on_flush_) on_flush_(it->ref, std::move(flushed), reason);
    it = ghosts_.erase(it);
  }
}

// --- snapshots -------------------------------------------------------

void BgpSpeaker::rebuild_snapshot() {
  std::vector<SessionSnapshot> rows;
  rows.reserve(sessions_.size() + ghosts_.size());
  std::size_t established = 0;
  for (const auto& sp : sessions_) {
    const Session& session = *sp;
    SessionSnapshot row;
    row.id = session.id;
    row.passive = session.passive;
    row.bridged = session.bridged;
    row.state = bgp::to_string(session.fsm.state());
    if (session.fsm.state() == bgp::FsmState::kEstablished) ++established;
    row.peer_asn = session.peer_asn;
    row.peer_address = session.logical_address.to_string();
    row.peer_bgp_id = session.peer_open.has_value() ? session.peer_open->bgp_id : 0;
    row.negotiated_hold = session.fsm.negotiated_hold_time();
    row.gr = session.peer_open.has_value() &&
             session.peer_open->graceful_restart.has_value();
    row.llgr = session.peer_open.has_value() && session.peer_open->llgr.has_value();
    row.messages_in = session.messages_in;
    row.messages_out = session.messages_out;
    row.updates_in = session.updates_in;
    row.updates_out = session.updates_out;
    row.routes = session.retention.routes();
    row.stale_routes = session.retention.stale_count();
    row.last_event = session.last_event;
    rows.push_back(std::move(row));
  }
  for (const Ghost& ghost : ghosts_) {
    SessionSnapshot row;
    row.id = ghost.ref.id;
    row.bridged = ghost.ref.bridged;
    row.state = "GrStale";
    row.peer_asn = ghost.ref.peer_asn;
    row.peer_address = ghost.ref.peer_address.to_string();
    row.routes = ghost.retention.routes();
    row.stale_routes = ghost.retention.stale_count();
    row.last_event = "GR retention until t+" +
                     std::to_string(ghost.retention.deadline());
    rows.push_back(std::move(row));
  }
  std::lock_guard<std::mutex> lock(snap_mutex_);
  snap_ = std::move(rows);
  snap_established_ = established;
}

std::vector<SessionSnapshot> BgpSpeaker::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mutex_);
  return snap_;
}

std::size_t BgpSpeaker::established_count() const {
  std::lock_guard<std::mutex> lock(snap_mutex_);
  return snap_established_;
}

std::string BgpSpeaker::sessions_json() const {
  const auto rows = snapshot();
  std::size_t established = 0;
  std::size_t stale = 0;
  for (const auto& row : rows) {
    if (row.state == "Established") ++established;
    stale += row.stale_routes;
  }
  std::string out = "{\"local_asn\":" + std::to_string(config_.local_asn) +
                    ",\"established\":" + std::to_string(established) +
                    ",\"stale_routes\":" + std::to_string(stale) +
                    ",\"sessions\":[";
  bool first = true;
  for (const auto& row : rows) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(row.id);
    out += ",\"role\":\"";
    out += row.state == "GrStale" ? "ghost" : (row.passive ? "passive" : "active");
    out += "\",\"bridged\":";
    out += row.bridged ? "true" : "false";
    out += ",\"state\":\"";
    netbase::append_json_escaped(out, row.state);
    out += "\",\"asn\":" + std::to_string(row.peer_asn);
    out += ",\"address\":\"";
    netbase::append_json_escaped(out, row.peer_address);
    out += "\",\"hold\":" + std::to_string(row.negotiated_hold);
    out += ",\"gr\":";
    out += row.gr ? "true" : "false";
    out += ",\"llgr\":";
    out += row.llgr ? "true" : "false";
    out += ",\"messages_in\":" + std::to_string(row.messages_in);
    out += ",\"messages_out\":" + std::to_string(row.messages_out);
    out += ",\"updates_in\":" + std::to_string(row.updates_in);
    out += ",\"routes\":" + std::to_string(row.routes);
    out += ",\"stale\":" + std::to_string(row.stale_routes);
    out += ",\"last_event\":\"";
    netbase::append_json_escaped(out, row.last_event);
    out += "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace zombiescope::wire
