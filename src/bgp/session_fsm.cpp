#include "bgp/session_fsm.hpp"

#include <algorithm>

namespace zombiescope::bgp {

std::string to_string(FsmState state) {
  switch (state) {
    case FsmState::kIdle:
      return "Idle";
    case FsmState::kConnect:
      return "Connect";
    case FsmState::kOpenSent:
      return "OpenSent";
    case FsmState::kOpenConfirm:
      return "OpenConfirm";
    case FsmState::kEstablished:
      return "Established";
  }
  return "?";
}

netbase::Duration SessionFsm::negotiated_hold_time() const {
  if (!peer_open_.has_value()) return config_.hold_time;
  // min() is correct for 0 too: a zero offer from either side disables
  // the hold timer for both (RFC 4271 §4.2).
  return std::min(config_.hold_time, peer_open_->hold_time);
}

netbase::Duration SessionFsm::negotiated_keepalive_interval() const {
  if (!peer_open_.has_value()) return config_.keepalive_interval;
  return negotiated_hold_time() / 3;
}

bool SessionFsm::collision_close_local(std::uint32_t local_id,
                                       std::uint32_t remote_id,
                                       bool local_initiated) {
  // §6.8: the connection initiated by the higher BGP Identifier wins.
  // (Equal identifiers cannot happen between distinct speakers; treat
  // the tie like a remote win so exactly one side closes.)
  const bool local_side_wins = local_id > remote_id;
  return local_initiated ? !local_side_wins : local_side_wins;
}

void SessionFsm::start(netbase::TimePoint now) {
  if (state_ != FsmState::kIdle) return;
  state_ = FsmState::kConnect;
  peer_open_.reset();
  connect_retries_ = 0;
  if (config_.connect_retry > 0) connect_retry_at_ = now + config_.connect_retry;
}

void SessionFsm::stop(netbase::TimePoint now) {
  if (state_ == FsmState::kEstablished) drop_session(now, "administrative stop");
  state_ = FsmState::kIdle;
  out_queue_.clear();
  peer_open_.reset();
  send_hold_expires_.reset();
}

void SessionFsm::connected(netbase::TimePoint now) {
  if (state_ != FsmState::kConnect) return;
  state_ = FsmState::kOpenSent;
  enqueue(now, FsmMessage{MessageType::kOpen, std::nullopt, std::nullopt});
  // §8.2.2: a large hold time (4 minutes) guards the OpenSent wait
  // when no hold time is configured; negotiation replaces it.
  hold_expires_ = now + (config_.hold_time > 0 ? config_.hold_time : 240);
}

void SessionFsm::receive(netbase::TimePoint now, const FsmMessage& message) {
  if (message.type == MessageType::kOpen && message.open.has_value())
    peer_open_ = message.open;

  // Any message from the peer proves liveness. Negotiated hold: once
  // both OPENs are on the table the session runs at min(ours, theirs),
  // not at our configured offer.
  if (negotiated_hold_time() > 0) hold_expires_ = now + negotiated_hold_time();

  switch (state_) {
    case FsmState::kIdle:
    case FsmState::kConnect:
      return;  // stray packet; transport not up from our perspective
    case FsmState::kOpenSent:
      if (message.type == MessageType::kOpen) {
        state_ = FsmState::kOpenConfirm;
        enqueue(now, FsmMessage{MessageType::kKeepalive, std::nullopt, std::nullopt});
      } else if (message.type == MessageType::kNotification) {
        stop(now);
      }
      return;
    case FsmState::kOpenConfirm:
      if (message.type == MessageType::kKeepalive) {
        state_ = FsmState::kEstablished;
        keepalive_due_ = now + negotiated_keepalive_interval();
      } else if (message.type == MessageType::kNotification) {
        stop(now);
      }
      return;
    case FsmState::kEstablished:
      if (message.type == MessageType::kNotification) {
        drop_session(now, "NOTIFICATION from peer");
        state_ = FsmState::kIdle;
      }
      return;
  }
}

bool SessionFsm::send_update(netbase::TimePoint now, UpdateMessage update) {
  if (state_ != FsmState::kEstablished) return false;
  enqueue(now, FsmMessage{MessageType::kUpdate, std::move(update), std::nullopt});
  return true;
}

std::vector<FsmMessage> SessionFsm::drain(netbase::TimePoint now, std::size_t max_messages) {
  std::vector<FsmMessage> out;
  while (!out_queue_.empty() && out.size() < max_messages) {
    out.push_back(std::move(out_queue_.front()));
    out_queue_.pop_front();
  }
  // Send progress: the RFC 9687 timer restarts (or clears) whenever
  // the queue drains.
  if (!out.empty()) {
    if (out_queue_.empty())
      send_hold_expires_.reset();
    else if (config_.send_hold_time > 0)
      send_hold_expires_ = now + config_.send_hold_time;
  }
  return out;
}

void SessionFsm::tick(netbase::TimePoint now) {
  // ConnectRetryTimer (§8.2.2): fires while the transport never comes
  // up; the owner of the socket watches connect_retries() to re-dial.
  if (state_ == FsmState::kConnect) {
    if (config_.connect_retry > 0 && now >= connect_retry_at_) {
      ++connect_retries_;
      connect_retry_at_ = now + config_.connect_retry;
    }
    return;
  }
  if (state_ != FsmState::kEstablished && state_ != FsmState::kOpenSent &&
      state_ != FsmState::kOpenConfirm)
    return;

  // Hold timer (RFC 4271 §8.2.2): nothing received in time. Runs at
  // the negotiated value once the peer's OPEN has been seen.
  if (negotiated_hold_time() > 0 && now >= hold_expires_) {
    drop_session(now, "hold timer expired");
    state_ = FsmState::kIdle;
    return;
  }

  if (state_ != FsmState::kEstablished) return;

  // Send hold timer (RFC 9687): the peer has not read anything we
  // queued for send_hold_time.
  if (send_hold_expires_.has_value() && now >= *send_hold_expires_) {
    drop_session(now, "send hold timer expired (RFC 9687)");
    state_ = FsmState::kIdle;
    return;
  }

  // KEEPALIVE schedule, at the negotiated cadence.
  const netbase::Duration keepalive = negotiated_keepalive_interval();
  if (keepalive > 0 && now >= keepalive_due_) {
    enqueue(now, FsmMessage{MessageType::kKeepalive, std::nullopt, std::nullopt});
    keepalive_due_ = now + keepalive;
  }
}

std::optional<netbase::TimePoint> SessionFsm::next_deadline() const {
  std::optional<netbase::TimePoint> next;
  const auto consider = [&next](netbase::TimePoint t) {
    if (!next || t < *next) next = t;
  };
  if (state_ == FsmState::kConnect) {
    if (config_.connect_retry > 0) consider(connect_retry_at_);
    return next;
  }
  if (state_ == FsmState::kIdle) return next;
  if (negotiated_hold_time() > 0) consider(hold_expires_);
  if (state_ == FsmState::kEstablished) {
    if (send_hold_expires_.has_value()) consider(*send_hold_expires_);
    if (negotiated_keepalive_interval() > 0) consider(keepalive_due_);
  }
  return next;
}

void SessionFsm::enqueue(netbase::TimePoint now, FsmMessage message) {
  out_queue_.push_back(std::move(message));
  if (config_.send_hold_time > 0 && !send_hold_expires_.has_value())
    send_hold_expires_ = now + config_.send_hold_time;
}

void SessionFsm::drop_session(netbase::TimePoint now, const std::string& reason) {
  (void)now;
  last_error_ = reason;
  ++session_drops_;
  out_queue_.clear();
  send_hold_expires_.reset();
}

}  // namespace zombiescope::bgp
