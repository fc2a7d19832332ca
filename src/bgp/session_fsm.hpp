// bgp/session_fsm.hpp — the BGP session finite-state machine
// (RFC 4271 §8) with the send-side extension of RFC 9687 (Send Hold
// Timer).
//
// The paper cites a concrete zombie mechanism (Cartwright-Cox 2021;
// Snijders et al., RFC 9687): a peer whose TCP receive window stays at
// zero. The wedged box keeps *sending* KEEPALIVEs — so the healthy
// side's hold timer never fires — but reads nothing, so the healthy
// side's withdrawals sit in the socket queue forever: every route the
// wedged box holds is now a zombie. RFC 9687's remedy is a send-side
// timer: if the session cannot make send progress for SendHoldTime,
// tear it down. This module models both endpoints faithfully enough
// to reproduce the pathology and quantify the remedy
// (bench/ablation_sendhold).

#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "bgp/types.hpp"
#include "bgp/update.hpp"
#include "netbase/time.hpp"

namespace zombiescope::bgp {

/// FSM states (RFC 4271 §8.2.2). Connect/Active collapse into one
/// "connecting" state: TCP setup details are out of scope.
enum class FsmState : std::uint8_t {
  kIdle,
  kConnect,
  kOpenSent,
  kOpenConfirm,
  kEstablished,
};

std::string to_string(FsmState state);

struct FsmConfig {
  /// Our *offered* hold time; 0 disables keepalives (not recommended).
  /// The operative value once the peer's OPEN is seen is
  /// negotiated_hold_time() = min(ours, theirs) per RFC 4271 §4.2.
  netbase::Duration hold_time = 90;
  /// KEEPALIVE interval, conventionally hold_time / 3. Like the hold
  /// time this is the pre-negotiation value; once an OPEN carries the
  /// peer's offer, negotiated_keepalive_interval() governs.
  netbase::Duration keepalive_interval = 30;
  /// RFC 9687 SendHoldTimer: tear the session down if no send progress
  /// for this long. 0 = disabled (pre-RFC 9687 behaviour).
  netbase::Duration send_hold_time = 0;
  /// RFC 4271 §8.2.2 ConnectRetryTimer: while in Connect, re-attempt
  /// the transport every this many seconds. 0 = never retry (the
  /// pre-wire behaviour, where the harness always connects promptly).
  netbase::Duration connect_retry = 0;
};

/// The OPEN payload fields the FSM negotiates on (the full capability
/// set lives in wire/message.hpp; the FSM only needs these three).
struct FsmOpen {
  netbase::Duration hold_time = 90;
  std::uint32_t bgp_id = 0;
  Asn asn = 0;

  friend bool operator==(const FsmOpen&, const FsmOpen&) = default;
};

/// A message on the session, as far as the FSM cares.
struct FsmMessage {
  MessageType type = MessageType::kKeepalive;
  /// Payload for UPDATE messages.
  std::optional<UpdateMessage> update;
  /// Payload for OPEN messages; absent means "no negotiation info"
  /// (the pre-wire harness), in which case configured timers stand.
  std::optional<FsmOpen> open;
};

/// One endpoint of a BGP session. Drive it with events and `poll()`;
/// transmitted messages accumulate in the out queue until the peer
/// reads them (models the TCP send buffer + peer receive window).
class SessionFsm {
 public:
  explicit SessionFsm(FsmConfig config) : config_(config) {}

  FsmState state() const { return state_; }
  const FsmConfig& config() const { return config_; }

  /// Operator starts the session.
  void start(netbase::TimePoint now);

  /// Administrative or error stop: back to Idle, queues cleared.
  void stop(netbase::TimePoint now);

  /// The transport connected (both sides call this; each then sends
  /// OPEN).
  void connected(netbase::TimePoint now);

  /// A message from the peer arrived and was read by this endpoint.
  void receive(netbase::TimePoint now, const FsmMessage& message);

  /// Queues an UPDATE for the peer. Returns false unless Established.
  bool send_update(netbase::TimePoint now, UpdateMessage update);

  /// The peer's receive window: how many queued messages it reads now.
  /// Returns the messages handed to the wire (to be fed into the
  /// peer's receive()).
  std::vector<FsmMessage> drain(netbase::TimePoint now, std::size_t max_messages);

  /// Timer processing; call whenever time advances. May emit messages
  /// into the out queue (KEEPALIVEs) or tear the session down (hold
  /// timer, send hold timer).
  void tick(netbase::TimePoint now);

  /// Messages waiting for the peer to read (the "socket queue").
  std::size_t queued() const { return out_queue_.size(); }

  /// The earliest instant a running timer fires (ConnectRetry, hold,
  /// send hold, KEEPALIVE), i.e. when tick() next has work; nullopt
  /// when no timer runs.
  std::optional<netbase::TimePoint> next_deadline() const;

  /// Why the session last left Established, if it did.
  const std::string& last_error() const { return last_error_; }

  /// Diagnostics: number of Established→down transitions.
  int session_drops() const { return session_drops_; }

  /// The peer's OPEN, once received.
  const std::optional<FsmOpen>& peer_open() const { return peer_open_; }

  /// RFC 4271 §4.2: min(our offer, the peer's offer) once the peer's
  /// OPEN is in; our configured value before that (and always, for the
  /// payload-less OPENs of the simulation harness).
  netbase::Duration negotiated_hold_time() const;

  /// hold/3 once negotiated (0 when the negotiated hold is 0);
  /// the configured interval before negotiation.
  netbase::Duration negotiated_keepalive_interval() const;

  /// Times the ConnectRetryTimer fired (tick() re-arms it while the
  /// state stays Connect; the transport layer watches this counter to
  /// know when to re-dial).
  int connect_retries() const { return connect_retries_; }

  /// RFC 4271 §6.8 connection collision resolution: with two
  /// connections to the same peer in flight, the one initiated by the
  /// side with the higher BGP Identifier survives. Returns true when
  /// the *local* connection (ours, initiated-by-us iff local_initiated)
  /// is the one to close.
  static bool collision_close_local(std::uint32_t local_id,
                                    std::uint32_t remote_id,
                                    bool local_initiated);

 private:
  void enqueue(netbase::TimePoint now, FsmMessage message);
  void drop_session(netbase::TimePoint now, const std::string& reason);

  FsmConfig config_;
  FsmState state_ = FsmState::kIdle;
  std::deque<FsmMessage> out_queue_;
  std::optional<FsmOpen> peer_open_;
  netbase::TimePoint hold_expires_ = 0;       // no message received by then => drop
  netbase::TimePoint keepalive_due_ = 0;
  netbase::TimePoint connect_retry_at_ = 0;   // next ConnectRetry firing
  int connect_retries_ = 0;
  /// Set while the out queue is non-empty; no progress past this
  /// instant trips the RFC 9687 send hold timer.
  std::optional<netbase::TimePoint> send_hold_expires_;
  std::string last_error_;
  int session_drops_ = 0;
};

}  // namespace zombiescope::bgp
