// zombie/realtime.hpp — streaming (online) zombie detection.
//
// §6 of the paper: "Real-time detection of a zombie outbreak and
// identification of the AS causing it will notify the network
// operators of the infected ASes to examine and resolve the issue
// more quickly." This detector consumes MRT records incrementally,
// knows the beacon schedule, and raises an alert the moment a peer's
// route survives `threshold` past its withdrawal — plus a resolution
// event when the stuck route finally clears, which yields live zombie
// lifetimes.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "beacon/schedule.hpp"
#include "mrt/record.hpp"
#include "zombie/types.hpp"

namespace zombiescope::zombie {

/// Raised when a route outlives the threshold after its withdrawal.
struct ZombieAlert {
  netbase::Prefix prefix;
  PeerKey peer;
  netbase::TimePoint withdrawn_at = 0;
  netbase::TimePoint raised_at = 0;
  /// Raised after the deadline: the route came back once the window
  /// had passed clean. Live-only; batch folds it into the outbreak.
  bool resurrected = false;
  bgp::AsPath stuck_path;
};

/// Raised when a previously alerted route clears (withdrawal, session
/// flush, or a new beacon announcement superseding it).
struct ZombieResolution {
  netbase::Prefix prefix;
  PeerKey peer;
  netbase::TimePoint withdrawn_at = 0;
  netbase::TimePoint resolved_at = 0;
  netbase::Duration stuck_for() const { return resolved_at - withdrawn_at; }
};

struct RealTimeConfig {
  netbase::Duration threshold = 90 * netbase::kMinute;
};

/// One peer inside one beacon window: its live route state, plus what
/// the window saw of it, which the window's close reports.
struct WindowPeer {
  bool announced = false;  // holds the route now
  bool alerted = false;
  bool ann_seen = false;   // announced at or after announce_time
  bool wd_seen = false;    // withdrew at or after withdraw_time
  bgp::AsPath path;
};
using WindowPeers = std::map<PeerKey, WindowPeer>;

/// Online detector. Usage:
///   RealTimeZombieDetector det(config);
///   det.on_alert([](const ZombieAlert& a) { ... });
///   for (event : schedule) det.expect(event);  // any order, any time
///   for (record : stream) det.ingest(record);
///   det.advance(now);               // heartbeat fires due alerts
///
/// It owns a stream's beacon schedule: it buffers registered events,
/// keeps the stream time, opens each event's window (watch) when that
/// time reaches its announce_time, and flags each alert raised after
/// its deadline as resurrected — callers release nothing and derive
/// nothing. Each window closes once, at its deadline or when a recycle
/// replaces it before then, and on_window_close reports every close
/// with the window's peers — how live feed-quality accounting
/// (live/peerq.hpp) counts each peer's seen and missed cycles without
/// a window table of its own. Per-record cost does not grow with the
/// number of watches: pending events and deadlines sit in ordered
/// queues and the alerted routes in their own map. A session reset,
/// which clears the peer from every watch, is the exception.
class RealTimeZombieDetector {
 public:
  explicit RealTimeZombieDetector(RealTimeConfig config) : config_(std::move(config)) {}

  void on_alert(std::function<void(const ZombieAlert&)> fn) { alert_fn_ = std::move(fn); }
  void on_resolution(std::function<void(const ZombieResolution&)> fn) {
    resolution_fn_ = std::move(fn);
  }
  /// Called once per closed window: after its deadline's alerts, or
  /// when the window recycling its prefix opens before the deadline.
  void on_window_close(std::function<void(const WindowPeers&)> fn) {
    window_close_fn_ = std::move(fn);
  }

  /// Registers a beacon announce/withdraw pair; a whole schedule may
  /// be registered up front, in any order. The event waits until the
  /// stream time reaches its announce_time, so a later cycle cannot
  /// replace an earlier one before the earlier deadline fires. Due
  /// events open in (announce_time, registration) order, each after
  /// every deadline strictly before its announce_time has fired; an
  /// event already due (announce_time <= stream_time()) opens at once.
  /// Superseded events are ignored per the paper's collision rule.
  /// Opening a window replaces the prefix's previous one (prefix
  /// recycled): if that one's deadline falls exactly on the new
  /// announce_time it fires first, and if it falls later the window
  /// closes unfired.
  void expect(const beacon::BeaconEvent& event);

  /// Feeds one record and moves the stream time to its timestamp.
  /// Events due by then open first. Deadlines strictly before the
  /// timestamp fire next; a deadline equal to it fires only after the
  /// record is applied, so an update stamped exactly at withdraw +
  /// threshold is in time, as in the batch LongLivedZombieDetector.
  void ingest(const mrt::MrtRecord& record);

  /// Moves the stream time to `now`: opens due events, then fires
  /// every deadline <= now in (deadline, prefix) order. Costs
  /// O(log n) per opened event and per fired or superseded deadline,
  /// nothing per idle watch.
  void advance(netbase::TimePoint now);

  /// The largest record timestamp or advance() instant seen so far.
  netbase::TimePoint stream_time() const { return stream_time_; }

  /// Currently stuck (alerted, unresolved) routes in (prefix, peer)
  /// order, with their alert's raised_at and resurrected flag and
  /// their latest path.
  /// Walks only the alerted routes.
  std::vector<ZombieAlert> active_zombies() const;

  /// Moves whenever the active_zombies() set, or an alerted route's
  /// stuck path, changes — a caller holding a copy can skip rebuilding
  /// it while the value stays put.
  std::uint64_t active_version() const { return active_version_; }

  int alerts_raised() const { return alerts_raised_; }
  int resolutions() const { return resolutions_; }

 private:
  struct Watch {
    beacon::BeaconEvent event;
    WindowPeers peers;
    bool deadline_fired = false;
  };

  netbase::TimePoint deadline(const Watch& watch) const {
    return watch.event.withdraw_time + config_.threshold;
  }
  /// Opens every pending event whose announce_time has been reached.
  void open_due();
  /// Opens the event's window, replacing the prefix's previous one.
  void open(const beacon::BeaconEvent& event);
  /// Fires every deadline <= t in (deadline, prefix) order.
  void fire_until(netbase::TimePoint t);
  void fire_deadline(Watch& watch);
  /// Marks the route alerted, records it in alerted_, and notifies.
  void raise(const Watch& watch, const PeerKey& peer, WindowPeer& state,
             netbase::TimePoint at);
  /// Clears the peer's route, resolving its alert if it had one.
  void resolve(const Watch& watch, const PeerKey& peer, WindowPeer& state,
               netbase::TimePoint at);

  RealTimeConfig config_;
  std::function<void(const ZombieAlert&)> alert_fn_;
  std::function<void(const ZombieResolution&)> resolution_fn_;
  std::function<void(const WindowPeers&)> window_close_fn_;
  /// Registered events not yet open, by announce_time; equal times
  /// keep registration order.
  std::multimap<netbase::TimePoint, beacon::BeaconEvent> pending_;
  /// Open watches keyed by prefix; opening another event for the same
  /// prefix supersedes the old watch (prefix recycled).
  std::map<netbase::Prefix, Watch> watches_;
  /// (deadline, prefix) min-heap driving fire_until(). A recycled
  /// prefix leaves its old entry behind, which is skipped when its
  /// watch has already fired or now carries another deadline.
  using Due = std::pair<netbase::TimePoint, netbase::Prefix>;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due_;
  /// The alerted, unresolved routes: what active_zombies() returns.
  std::map<std::pair<netbase::Prefix, PeerKey>, ZombieAlert> alerted_;
  std::uint64_t active_version_ = 0;
  netbase::TimePoint stream_time_ = 0;
  /// Every deadline <= fired_until_ has fired.
  netbase::TimePoint fired_until_ = 0;
  int alerts_raised_ = 0;
  int resolutions_ = 0;
};

}  // namespace zombiescope::zombie
