// live/bgp_feed.hpp — the BGP-4 wire feed: zslived as a collector.
//
// Wraps a wire::BgpSpeaker as a FeedSource, making the daemon a real
// BGP listener (--bgp-listen) and/or an active peer (--bgp-peer).
// Every UPDATE a session delivers becomes a Bgp4mpMessage submitted to
// the LiveService; session lifecycle becomes Bgp4mpStateChange records
// — with two deliberate exceptions that make the wire path equivalent
// to the archive path:
//
//   * Bridge sessions (OPEN capability 240) are transport tunnels for
//     replayed archives. Their UPDATEs carry wire/bridge.hpp stamp
//     attributes restoring the archive timestamp and a global sequence
//     number; the feed pops the attributes, re-orders on the sequence
//     (a min-heap releasing only consecutive numbers), and submits in
//     exact archive order — so a wire-driven replay yields the same
//     records in the same order as ReplayFeedSource, and therefore the
//     same zombie set (tests/wire_e2e_test.cpp). A bridge session's
//     own socket lifecycle is NOT a routing event and is suppressed,
//     but it bounds a stream: the feed counts each bridge session from
//     the OPEN that marks it bridged until it closes, and a replay
//     keeps one open from its first record to its last, so when the
//     last one closes the feed submits whatever is still parked (a
//     stream that lost records) and the next replay's sequence starts
//     again at 0. Replays run one after another, not at once.
//   * A real peer dropping with graceful restart negotiated is
//     reported with retained=true: the feed suppresses the state
//     change, because the collector's RIB did not flush — this is the
//     zombie-manufacturing path. The routes come back out through the
//     speaker's flush callback (End-of-RIB sweep or retention expiry)
//     as synthetic withdrawals.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "live/feed.hpp"
#include "obs/http.hpp"
#include "wire/speaker.hpp"

namespace zombiescope::live {

class BgpFeedSource : public FeedSource {
 public:
  /// Binds the listener immediately (port 0 picks an ephemeral port),
  /// so port() is valid before run(). Throws std::runtime_error when
  /// the socket cannot be bound.
  BgpFeedSource(wire::SpeakerConfig config, std::uint16_t port);

  std::uint16_t port() const { return speaker_.port(); }

  /// Registers an active peer, dialed once run() starts.
  void connect_to(const std::string& host, std::uint16_t port) {
    speaker_.connect_to(host, port);
  }

  /// Adds GET /sessions to the daemon's HTTP server.
  void attach_http(obs::HttpServer& http);

  wire::BgpSpeaker& speaker() { return speaker_; }

  RunStats run(LiveService& service) override;
  void stop() override { speaker_.stop(); }

 private:
  /// A parked record's place in the reorder heap: 16 bytes, so a heap
  /// sift moves tickets and each record moves in and out of its slot
  /// once.
  struct Ticket {
    std::uint64_t sequence = 0;
    std::uint64_t slot = 0;  // index into parked_
  };
  /// Heap order for tickets_: the lowest (sequence, slot) on top.
  static bool ticket_after(const Ticket& a, const Ticket& b) {
    return a.sequence != b.sequence ? a.sequence > b.sequence : a.slot > b.slot;
  }

  /// Submits an unstamped record at once; parks a stamped one until
  /// every lower sequence number has been submitted.
  void submit_or_queue(LiveService& service, FeedItem&& item,
                       std::optional<std::uint64_t> sequence, RunStats& stats);
  /// Submits the lowest-sequence parked record.
  void release_top(LiveService& service, RunStats& stats);
  /// Counts bridge sessions up at their OPEN and down at their close.
  /// When the last one closes, its stream is over: every parked record
  /// is submitted in sequence order, and the next stream starts again
  /// at sequence 0.
  void bridge_state(LiveService& service, bgp::SessionState new_state, RunStats& stats);

  wire::SpeakerConfig config_;
  wire::BgpSpeaker speaker_;
  std::vector<FeedItem> parked_;         // slots; the free ones in free_slots_
  std::vector<std::uint64_t> free_slots_;
  std::vector<Ticket> tickets_;          // a min-heap on (sequence, slot)
  std::uint64_t next_sequence_ = 0;
  std::size_t bridge_sessions_ = 0;      // open bridge sessions
};

}  // namespace zombiescope::live
