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
//     own socket lifecycle is NOT a routing event and is suppressed.
//   * A real peer dropping with graceful restart negotiated is
//     reported with retained=true: the feed suppresses the state
//     change, because the collector's RIB did not flush — this is the
//     zombie-manufacturing path. The routes come back out through the
//     speaker's flush callback (End-of-RIB sweep or retention expiry)
//     as synthetic withdrawals.

#pragma once

#include <cstdint>
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
  struct PendingRecord {
    std::uint64_t sequence = 0;
    mrt::MrtRecord record;
    std::chrono::steady_clock::time_point ingest{};
  };
  /// Heap order for reorder_: the lowest sequence on top.
  static bool sequence_after(const PendingRecord& a, const PendingRecord& b) {
    return a.sequence > b.sequence;
  }

  void submit_or_queue(LiveService& service, PendingRecord&& pending,
                       bool stamped, RunStats& stats);
  /// Pops the lowest-sequence record off reorder_ and submits it.
  void release_top(LiveService& service, RunStats& stats);

  wire::SpeakerConfig config_;
  wire::BgpSpeaker speaker_;
  std::vector<PendingRecord> reorder_;  // a min-heap on sequence
  std::uint64_t next_sequence_ = 0;
};

}  // namespace zombiescope::live
