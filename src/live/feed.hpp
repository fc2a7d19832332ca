// live/feed.hpp — where the zslive service's records come from.
//
// Three FeedSource implementations cover the three ways an operator
// runs the daemon:
//
//   ReplayFeedSource     an archived MRT update stream (file or
//                        in-memory), replayed at `speed` simulated
//                        seconds per wall second — or flat out at
//                        speed <= 0. Replay at any speed must yield
//                        the same zombie set as batch detection over
//                        the same file (tests/live_e2e_test.cpp).
//   SimTapFeedSource     a live tap on a running simnet simulation: a
//                        small topology with a beacon origin and a
//                        collector whose noisiest session loses every
//                        withdrawal, so zombies emerge and die while
//                        you watch. This is the --tap-demo mode the
//                        sanitizer soak drives.
//   TcpNdjsonFeedSource  a TCP listener accepting RIS-Live-style
//                        NDJSON messages (one JSON object per line,
//                        the https://ris-live.ripe.net schema), so a
//                        real firehose subscriber — or `nc` in a test
//                        — can push updates into the detector.
//
// A feed is a producer: run() pumps records into LiveService::submit
// on the caller's thread until the feed is exhausted or stop() is
// called from elsewhere. Backpressure policy lives in the service
// (LiveConfig::block_on_full), not the feed.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "beacon/schedule.hpp"
#include "live/service.hpp"
#include "mrt/record.hpp"
#include "netbase/reactor.hpp"

namespace zombiescope::live {

class FeedSource {
 public:
  struct RunStats {
    std::uint64_t records = 0;       // records handed to submit()
    std::uint64_t parse_errors = 0;  // NDJSON lines that failed to parse
  };

  virtual ~FeedSource() = default;

  /// Pumps the feed into `service` (which must be started) until the
  /// feed ends or stop() is called. Blocking; run on a thread of the
  /// caller's choosing.
  virtual RunStats run(LiveService& service) = 0;

  /// Asks a running run() to return promptly. Callable from any thread.
  virtual void stop() = 0;
};

/// Parses one RIS-Live NDJSON line into an MRT record. Accepts both
/// the wrapped form {"type":"ris_message","data":{...}} and the bare
/// data object. UPDATE messages become Bgp4mpMessage (announcements'
/// prefixes + withdrawals + AS path), RIS_PEER_STATE / STATE messages
/// become Bgp4mpStateChange. Returns nullopt on malformed input or
/// message types the detector has no use for.
std::optional<mrt::MrtRecord> parse_ris_live_line(std::string_view line);

class ReplayFeedSource : public FeedSource {
 public:
  /// speed: simulated seconds replayed per wall-clock second, paced
  /// off the records' own timestamps; <= 0 replays at maximum speed.
  ReplayFeedSource(std::vector<mrt::MrtRecord> records, double speed);

  /// Loads `path` via the mrt codec. Throws std::runtime_error on an
  /// unreadable file. (A pointer because the atomic stop flag makes
  /// the type immovable.)
  static std::unique_ptr<ReplayFeedSource> from_file(const std::string& path,
                                                     double speed);

  RunStats run(LiveService& service) override;
  void stop() override { stop_.store(true, std::memory_order_relaxed); }

  std::size_t record_count() const { return records_.size(); }

 private:
  std::vector<mrt::MrtRecord> records_;
  double speed_;
  std::atomic<bool> stop_{false};
};

/// Configuration of the self-contained demo simulation the tap drives.
/// The defaults are sized so that at speed 60 (one simulated minute
/// per wall second) a 30-second soak sees several full beacon cycles:
/// zombies emerge on the lossy session, die at the next announcement,
/// and emerge again.
struct SimTapConfig {
  double speed = 60.0;  // simulated seconds per wall second
  netbase::Duration duration = 2 * netbase::kHour;  // simulated run length
  netbase::Duration beacon_period = 20 * netbase::kMinute;
  netbase::Duration beacon_uptime = 10 * netbase::kMinute;
  std::size_t beacon_prefixes = 4;
  std::uint64_t seed = 7;
};

class SimTapFeedSource : public FeedSource {
 public:
  explicit SimTapFeedSource(SimTapConfig config) : config_(config) {}

  /// The beacon events the tap will originate; the daemon registers
  /// them with the service (expect) before run().
  std::vector<beacon::BeaconEvent> schedule() const;

  RunStats run(LiveService& service) override;
  void stop() override { stop_.store(true, std::memory_order_relaxed); }

 private:
  SimTapConfig config_;
  std::atomic<bool> stop_{false};
};

class TcpNdjsonFeedSource : public FeedSource {
 public:
  /// Binds 0.0.0.0:`port` (0 picks an ephemeral port) immediately, so
  /// port() is valid before run(). Throws std::runtime_error if the
  /// socket cannot be bound.
  explicit TcpNdjsonFeedSource(std::uint16_t port);

  std::uint16_t port() const { return reactor_.port(); }

  /// Serves until stop(): accepts up to netbase::kMaxConnections
  /// clients at once, parses each complete line, submits what parses,
  /// counts what does not. A client's final unterminated line is parsed
  /// when it disconnects; one whose unterminated line passes 1 MiB
  /// costs one parse error and is disconnected.
  RunStats run(LiveService& service) override;
  void stop() override { reactor_.stop(); }

 private:
  netbase::Reactor reactor_;
};

}  // namespace zombiescope::live
