// Tests for the BGP session FSM: establishment, keepalive/hold
// machinery, the zero-TCP-window zombie pathology, and the RFC 9687
// send-hold-timer remedy.

#include <gtest/gtest.h>

#include "bgp/session_fsm.hpp"

namespace zombiescope::bgp {
namespace {

using netbase::kMinute;
using netbase::TimePoint;

UpdateMessage withdrawal() {
  UpdateMessage msg;
  msg.withdrawn.push_back(netbase::Prefix::parse("2a0d:3dc1:1851::/48"));
  return msg;
}

/// A two-endpoint harness with per-side read windows (the TCP receive
/// window abstraction). advance() moves time in 1-second steps,
/// ticking both sides and shuttling messages subject to the windows.
struct Wire {
  SessionFsm a;
  SessionFsm b;
  bool a_reads = true;  // does A read what B sends?
  bool b_reads = true;  // does B read what A sends?
  TimePoint now = 0;

  Wire(FsmConfig config_a, FsmConfig config_b) : a(config_a), b(config_b) {}

  void establish() {
    a.start(now);
    b.start(now);
    a.connected(now);
    b.connected(now);
    advance(5);
    ASSERT_EQ(a.state(), FsmState::kEstablished);
    ASSERT_EQ(b.state(), FsmState::kEstablished);
  }

  void advance(netbase::Duration seconds) {
    for (netbase::Duration i = 0; i < seconds; ++i) {
      ++now;
      a.tick(now);
      b.tick(now);
      if (b_reads)
        for (const auto& message : a.drain(now, 16)) b.receive(now, message);
      if (a_reads)
        for (const auto& message : b.drain(now, 16)) a.receive(now, message);
    }
  }
};

FsmConfig plain() { return FsmConfig{90, 30, 0}; }
FsmConfig with_send_hold(netbase::Duration t) { return FsmConfig{90, 30, t}; }

TEST(SessionFsm, HandshakeReachesEstablished) {
  Wire wire(plain(), plain());
  wire.establish();
  EXPECT_EQ(wire.a.session_drops(), 0);
}

TEST(SessionFsm, KeepalivesSustainTheSession) {
  Wire wire(plain(), plain());
  wire.establish();
  wire.advance(20 * kMinute);
  EXPECT_EQ(wire.a.state(), FsmState::kEstablished);
  EXPECT_EQ(wire.b.state(), FsmState::kEstablished);
}

TEST(SessionFsm, HoldTimerFiresWhenPeerGoesSilent) {
  Wire wire(plain(), plain());
  wire.establish();
  // B's messages stop reaching A entirely (link cut one way).
  wire.a_reads = false;
  wire.advance(91);
  EXPECT_EQ(wire.a.state(), FsmState::kIdle);
  EXPECT_EQ(wire.a.last_error(), "hold timer expired");
}

TEST(SessionFsm, UpdatesFlowWhenHealthy) {
  Wire wire(plain(), plain());
  wire.establish();
  EXPECT_TRUE(wire.a.send_update(wire.now, withdrawal()));
  wire.advance(2);
  EXPECT_EQ(wire.a.queued(), 0u);
}

TEST(SessionFsm, SendUpdateRequiresEstablished) {
  SessionFsm fsm(plain());
  EXPECT_FALSE(fsm.send_update(0, withdrawal()));
}

FsmConfig wedged_box() {
  // The buggy box: keeps generating KEEPALIVEs, never reads, and its
  // own hold timer never fires (that is the bug — a healthy box would
  // tear down when it stops processing input).
  return FsmConfig{0, 30, 0};
}

TEST(SessionFsm, ZeroWindowPathologyWithoutRfc9687) {
  // The Cartwright-Cox incident: B wedges — it keeps sending
  // KEEPALIVEs but never reads. A's withdrawals queue forever; A's
  // hold timer never fires (B's keepalives keep arriving); the session
  // stays Established indefinitely. Every route B holds is a zombie.
  Wire wire(plain(), wedged_box());
  wire.establish();
  wire.b_reads = false;  // zero receive window at B
  EXPECT_TRUE(wire.a.send_update(wire.now, withdrawal()));
  wire.advance(60 * kMinute);
  EXPECT_EQ(wire.a.state(), FsmState::kEstablished) << "pre-9687: session never drops";
  EXPECT_GT(wire.a.queued(), 0u) << "the withdrawal is still stuck in the queue";
  EXPECT_EQ(wire.a.session_drops(), 0);
}

TEST(SessionFsm, SendHoldTimerTearsDownWedgedSession) {
  // Same pathology, with RFC 9687 enabled on A (send hold 8 minutes).
  Wire wire(with_send_hold(8 * kMinute), wedged_box());
  wire.establish();
  wire.b_reads = false;
  EXPECT_TRUE(wire.a.send_update(wire.now, withdrawal()));
  wire.advance(8 * kMinute + 30);
  EXPECT_EQ(wire.a.state(), FsmState::kIdle);
  EXPECT_EQ(wire.a.last_error(), "send hold timer expired (RFC 9687)");
  EXPECT_EQ(wire.a.session_drops(), 1);
}

TEST(SessionFsm, SendHoldTimerDoesNotFireUnderNormalOperation) {
  Wire wire(with_send_hold(8 * kMinute), with_send_hold(8 * kMinute));
  wire.establish();
  for (int i = 0; i < 30; ++i) {
    wire.a.send_update(wire.now, withdrawal());
    wire.advance(2 * kMinute);
  }
  EXPECT_EQ(wire.a.state(), FsmState::kEstablished);
  EXPECT_EQ(wire.a.session_drops(), 0);
}

TEST(SessionFsm, SendHoldTimerRestartsOnPartialProgress) {
  // The peer reads slowly but steadily: as long as the queue makes
  // progress, RFC 9687 must not fire.
  Wire wire(with_send_hold(5 * kMinute), plain());  // healthy peer
  wire.establish();
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 40; ++i) wire.a.send_update(wire.now, withdrawal());
    wire.advance(4 * kMinute);  // drain rate 16/s clears each burst
  }
  EXPECT_EQ(wire.a.state(), FsmState::kEstablished);
}

TEST(SessionFsm, NotificationDropsSession) {
  Wire wire(plain(), plain());
  wire.establish();
  wire.b.receive(wire.now, FsmMessage{MessageType::kNotification, std::nullopt, std::nullopt});
  EXPECT_EQ(wire.b.state(), FsmState::kIdle);
  EXPECT_EQ(wire.b.last_error(), "NOTIFICATION from peer");
}

TEST(SessionFsm, StopClearsQueues) {
  Wire wire(plain(), plain());
  wire.establish();
  wire.b_reads = false;
  wire.a.send_update(wire.now, withdrawal());
  EXPECT_GT(wire.a.queued(), 0u);
  wire.a.stop(wire.now);
  EXPECT_EQ(wire.a.state(), FsmState::kIdle);
  EXPECT_EQ(wire.a.queued(), 0u);
}

TEST(SessionFsm, StateNames) {
  EXPECT_EQ(to_string(FsmState::kEstablished), "Established");
  EXPECT_EQ(to_string(FsmState::kOpenConfirm), "OpenConfirm");
}

TEST(SessionFsm, NotificationInOpenSentReturnsToIdle) {
  SessionFsm fsm(plain());
  fsm.start(0);
  fsm.connected(0);
  ASSERT_EQ(fsm.state(), FsmState::kOpenSent);
  fsm.receive(1, FsmMessage{MessageType::kNotification, std::nullopt, std::nullopt});
  EXPECT_EQ(fsm.state(), FsmState::kIdle);
  // Never Established, so this is a failed attempt, not a session drop.
  EXPECT_EQ(fsm.session_drops(), 0);
}

TEST(SessionFsm, NotificationInOpenConfirmReturnsToIdle) {
  SessionFsm fsm(plain());
  fsm.start(0);
  fsm.connected(0);
  fsm.receive(1, FsmMessage{MessageType::kOpen, std::nullopt,
                            FsmOpen{90, 0xc0000202, 65000}});
  ASSERT_EQ(fsm.state(), FsmState::kOpenConfirm);
  fsm.receive(2, FsmMessage{MessageType::kNotification, std::nullopt, std::nullopt});
  EXPECT_EQ(fsm.state(), FsmState::kIdle);
  EXPECT_EQ(fsm.session_drops(), 0);
  EXPECT_EQ(fsm.queued(), 0u) << "stop must clear the half-open queue";
}

TEST(SessionFsm, ConnectRetryTimerFiresWhileTransportIsDown) {
  FsmConfig config = plain();
  config.connect_retry = 5;
  SessionFsm fsm(config);
  fsm.start(0);
  ASSERT_EQ(fsm.state(), FsmState::kConnect);
  for (TimePoint t = 1; t <= 16; ++t) fsm.tick(t);
  EXPECT_EQ(fsm.connect_retries(), 3) << "one firing per 5s while Connect";
  // The transport finally comes up: retries stop counting.
  fsm.connected(17);
  for (TimePoint t = 18; t <= 40; ++t) fsm.tick(t);
  EXPECT_EQ(fsm.connect_retries(), 3);
}

TEST(SessionFsm, NegotiatedTimersAreMinOfBothOffers) {
  SessionFsm fsm(plain());  // we offer 90
  fsm.start(0);
  fsm.connected(0);
  EXPECT_EQ(fsm.negotiated_hold_time(), 90);
  fsm.receive(1, FsmMessage{MessageType::kOpen, std::nullopt,
                            FsmOpen{30, 0xc0000202, 65000}});
  EXPECT_EQ(fsm.negotiated_hold_time(), 30);
  EXPECT_EQ(fsm.negotiated_keepalive_interval(), 10);
  // A zero offer from the peer disables the hold machinery entirely.
  SessionFsm zero(plain());
  zero.start(0);
  zero.connected(0);
  zero.receive(1, FsmMessage{MessageType::kOpen, std::nullopt,
                             FsmOpen{0, 0xc0000202, 65000}});
  EXPECT_EQ(zero.negotiated_hold_time(), 0);
  EXPECT_EQ(zero.negotiated_keepalive_interval(), 0);
}

/// Like Wire, but the shuttles patch real OPEN payloads in, so the
/// endpoints actually negotiate instead of running on configured
/// defaults.
struct NegotiatingWire {
  SessionFsm a;
  SessionFsm b;
  FsmOpen a_open;
  FsmOpen b_open;
  bool a_reads = true;
  TimePoint now = 0;

  NegotiatingWire(FsmConfig config_a, FsmConfig config_b, FsmOpen open_a,
                  FsmOpen open_b)
      : a(config_a), b(config_b), a_open(open_a), b_open(open_b) {}

  void advance(netbase::Duration seconds) {
    for (netbase::Duration i = 0; i < seconds; ++i) {
      ++now;
      a.tick(now);
      b.tick(now);
      for (auto& message : a.drain(now, 16)) {
        if (message.type == MessageType::kOpen && !message.open.has_value())
          message.open = a_open;
        b.receive(now, message);
      }
      if (a_reads) {
        for (auto& message : b.drain(now, 16)) {
          if (message.type == MessageType::kOpen && !message.open.has_value())
            message.open = b_open;
          a.receive(now, message);
        }
      }
    }
  }
};

TEST(SessionFsm, HoldTimerRunsAtTheNegotiatedValueNotTheConfiguredOne) {
  // Regression: A offers 90 but B offers 30 — once B's OPEN is in, A's
  // session must run at hold 30 / keepalive 10. When B goes silent the
  // drop comes ~30s later, three times sooner than A's configured 90.
  FsmConfig config_a{90, 30, 0};
  FsmConfig config_b{30, 10, 0};
  NegotiatingWire wire(config_a, config_b, FsmOpen{90, 0xc0000201, 64999},
                       FsmOpen{30, 0xc0000202, 65000});
  wire.a.start(0);
  wire.b.start(0);
  wire.a.connected(0);
  wire.b.connected(0);
  wire.advance(5);
  ASSERT_EQ(wire.a.state(), FsmState::kEstablished);
  EXPECT_EQ(wire.a.negotiated_hold_time(), 30);

  // Healthy at the negotiated cadence for a while first.
  wire.advance(5 * kMinute);
  ASSERT_EQ(wire.a.state(), FsmState::kEstablished);

  wire.a_reads = false;  // B goes silent from A's perspective
  wire.advance(31);
  EXPECT_EQ(wire.a.state(), FsmState::kIdle)
      << "a 90s configured hold would still be running here";
  EXPECT_EQ(wire.a.last_error(), "hold timer expired");
}

TEST(SessionFsm, CollisionResolutionClosesExactlyOneConnection) {
  // RFC 4271 §6.8 truth table: the connection initiated by the higher
  // BGP Identifier survives; for any (ids, who-initiated) exactly one
  // of the two parallel connections closes.
  for (const bool local_initiated : {true, false}) {
    // The same physical connection seen from both ends (initiator flag
    // flips, ids swap): both speakers must reach the same verdict.
    EXPECT_EQ(SessionFsm::collision_close_local(20, 10, local_initiated),
              SessionFsm::collision_close_local(10, 20, !local_initiated))
        << "the two speakers must agree on which connection dies";
  }
  EXPECT_FALSE(SessionFsm::collision_close_local(20, 10, true));
  EXPECT_TRUE(SessionFsm::collision_close_local(10, 20, true));
  EXPECT_TRUE(SessionFsm::collision_close_local(20, 10, false));
  EXPECT_FALSE(SessionFsm::collision_close_local(10, 20, false));
}

}  // namespace
}  // namespace zombiescope::bgp
