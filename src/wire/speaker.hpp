// wire/speaker.hpp — the BGP-4 speaker: real sockets, driven by the
// bgp/session_fsm.
//
// One netbase::Reactor loop owns every session: a passive listener
// (zslived --bgp-listen, the RIS-collector role), active outbound peers
// with ConnectRetry (--bgp-peer), or both, at most
// netbase::kMaxConnections at once. Each session pairs a TCP connection
// with a SessionFsm — the FSM owns states and timers (hold-time
// negotiated to min(ours, theirs), KEEPALIVE cadence, ConnectRetry),
// the speaker owns the bytes: frames inbound traffic through
// wire/message.hpp, serializes the FSM's outbound queue, answers
// malformed input with the NOTIFICATION its WireError names, resolves
// §6.8 connection collisions by BGP Identifier, and implements the
// RFC 9687 send-hold check at the socket (a peer that stops draining
// our socket keeps its session only until send_hold_time of zero write
// progress).
//
// Graceful restart rides on wire/retention.hpp: each session tracks
// the peer's announced prefixes; when a GR-negotiated session drops,
// the routes go stale instead of flushed and the session lives on as a
// "ghost" awaiting the peer's return (End-of-RIB sweep) or the
// restart/LLGR deadline. The owner observes everything through three
// callbacks (update / state / flush) and the sessions_json() snapshot
// that backs GET /sessions and the zstop SESSIONS panel.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/session_fsm.hpp"
#include "netbase/ip.hpp"
#include "netbase/reactor.hpp"
#include "netbase/time.hpp"
#include "wire/message.hpp"
#include "wire/retention.hpp"

namespace zombiescope::wire {

struct SpeakerConfig {
  bgp::Asn local_asn = 64999;
  std::uint32_t bgp_id = 0xc0000263;  // 192.0.2.99
  /// Offered hold time; the FSM negotiates min(ours, theirs).
  netbase::Duration hold_time = 90;
  /// Pre-negotiation KEEPALIVE cadence (hold/3 once negotiated).
  netbase::Duration keepalive_interval = 30;
  /// RFC 9687 socket send-hold; 0 disables.
  netbase::Duration send_hold_time = 0;
  /// Re-dial cadence for active peers.
  netbase::Duration connect_retry = 5;
  /// Stale-path retention policy (gr_enabled makes the speaker
  /// advertise the GR capability; llgr_enabled adds LLGR).
  RetentionConfig retention;
  /// Restart/stale windows *we* advertise in our OPEN.
  netbase::Duration advertised_restart_time = 120;
  netbase::Duration advertised_llgr_stale_time = 0;
  bool advertise_route_refresh = true;
};

/// Stable identity of a session as the callbacks see it. The address
/// is the *logical* peer address: capability 240 when the peer is a
/// replay bridge, the socket address otherwise.
struct SessionRef {
  std::uint64_t id = 0;
  bgp::Asn peer_asn = 0;
  netbase::IpAddress peer_address;
  bool bridged = false;
};

/// One row of GET /sessions.
struct SessionSnapshot {
  std::uint64_t id = 0;
  bool passive = true;
  bool bridged = false;
  std::string state;
  bgp::Asn peer_asn = 0;
  std::string peer_address;
  std::uint32_t peer_bgp_id = 0;
  netbase::Duration negotiated_hold = 0;
  bool gr = false;
  bool llgr = false;
  std::uint64_t messages_in = 0;
  std::uint64_t messages_out = 0;
  std::uint64_t updates_in = 0;
  std::uint64_t updates_out = 0;
  std::size_t routes = 0;
  std::size_t stale_routes = 0;
  std::string last_event;
};

class BgpSpeaker : private netbase::Reactor::Handler {
 public:
  /// ingest is the steady-clock instant the complete frame left the
  /// socket — the stamp the live pipeline's latency accounting wants.
  using UpdateHandler =
      std::function<void(const SessionRef&, bgp::UpdateMessage&&,
                         std::chrono::steady_clock::time_point ingest)>;
  /// Reports a session established and its close. A bridge session
  /// (capability 240) is reported from its OPEN on, as OpenConfirm,
  /// and its close in whatever state it closes. retained: the session
  /// dropped but GR kept its routes — the collector's RIB did NOT
  /// flush (the zombie-manufacturing case).
  using StateHandler =
      std::function<void(const SessionRef&, bgp::SessionState old_state,
                         bgp::SessionState new_state, bool retained)>;
  /// Routes leaving the RIB outside a peer's own withdrawal: End-of-RIB
  /// sweep, restart-time expiry, LLGR expiry, or plain session loss.
  using FlushHandler = std::function<void(
      const SessionRef&, std::vector<netbase::Prefix>&&, FlushReason)>;

  /// listen = true binds 0.0.0.0:port immediately (0 = ephemeral), so
  /// port() is valid before run(). Throws std::runtime_error when the
  /// socket cannot be bound.
  BgpSpeaker(SpeakerConfig config, bool listen, std::uint16_t port);
  ~BgpSpeaker();

  BgpSpeaker(const BgpSpeaker&) = delete;
  BgpSpeaker& operator=(const BgpSpeaker&) = delete;

  std::uint16_t port() const { return reactor_.port(); }

  /// Registers an active peer, dialed from run() with ConnectRetry.
  void connect_to(const std::string& host, std::uint16_t port);

  void on_update(UpdateHandler fn) { on_update_ = std::move(fn); }
  void on_state(StateHandler fn) { on_state_ = std::move(fn); }
  void on_flush(FlushHandler fn) { on_flush_ = std::move(fn); }

  /// The session loop; blocking until stop(), which ends every session
  /// with Cease/Administrative Shutdown. Callbacks fire on this thread.
  void run();
  void stop() { reactor_.stop(); }

  /// Thread-safe snapshot of every live session and GR ghost; rebuilt
  /// each loop turn.
  std::vector<SessionSnapshot> snapshot() const;
  /// The GET /sessions body built from snapshot().
  std::string sessions_json() const;
  std::size_t established_count() const;

 private:
  struct Session;
  struct Ghost;
  struct ActivePeer;

  using ConnId = netbase::Reactor::ConnId;
  using Clock = netbase::Reactor::Clock;

  void on_open(ConnId id) override;
  void on_data(ConnId id, std::string_view bytes) override;
  void on_close(ConnId id, netbase::Reactor::Closed why) override;
  Clock::time_point on_turn(Clock::time_point now) override;

  netbase::TimePoint wall_now() const;
  Session* find_session(ConnId id);
  std::unique_ptr<Session> new_session(ConnId id, bool passive) const;
  Clock::time_point next_deadline(Clock::time_point now);
  void dial_due_peers(netbase::TimePoint now);
  void handle_frame(Session& session, std::vector<std::uint8_t> frame,
                    netbase::TimePoint now,
                    std::chrono::steady_clock::time_point ingest);
  void handle_open(Session& session, OpenMessage open, netbase::TimePoint now);
  void sync_fsm_state(Session& session, netbase::TimePoint now);
  void pump_fsm_out(Session& session, netbase::TimePoint now);
  void send_notification(Session& session, NotifyCode code, std::uint8_t subcode);
  void teardown(Session& session, const std::string& reason,
                netbase::TimePoint now);
  void adopt_or_create_retention(Session& session);
  void tick_ghosts(netbase::TimePoint now);
  void rebuild_snapshot();
  SessionRef ref_of(const Session& session) const;
  std::vector<std::uint8_t> encode_local_open() const;

  SpeakerConfig config_;
  netbase::Reactor reactor_;
  std::vector<std::unique_ptr<Session>> sessions_;  // id = the connection's
  std::vector<Ghost> ghosts_;
  std::vector<ActivePeer> active_peers_;
  std::mutex active_mutex_;  // connect_to() may race run()

  UpdateHandler on_update_;
  StateHandler on_state_;
  FlushHandler on_flush_;

  mutable std::mutex snap_mutex_;
  std::vector<SessionSnapshot> snap_;
  std::size_t snap_established_ = 0;
};

}  // namespace zombiescope::wire
