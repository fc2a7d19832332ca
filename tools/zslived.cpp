// zslived — the live zombie-detection daemon.
//
// Runs the zslive service (live/service.hpp) against one of three
// feeds and serves the result over HTTP while it happens:
//
//   zslived --replay updates.mrt --schedule daily --start 2024-03-01
//           --end 2024-03-02 --speed 60 --http-port 8080
//       replays an archived day at 60 simulated seconds per wall
//       second; curl /live/zombies for the current stuck set,
//       curl -N /live/events for the emerge/resurrect/die stream.
//
//   zslived --tap-demo --http-port 8080 --duration 30
//       self-contained demo: a small simulation with a collector
//       session that loses every withdrawal, so zombies emerge and
//       die while you watch. This is what the sanitizer soak runs.
//
//   zslived --tcp-port 9000 --schedule ris --start ... --end ...
//       accepts RIS-Live-style NDJSON on a TCP socket (one JSON
//       object per line) and detects on it as it arrives.
//
//   zslived --bgp-listen 1790 --schedule ris --start ... --end ...
//       a real BGP-4 collector: accepts peering sessions (RFC 4271
//       OPEN/KEEPALIVE/UPDATE over TCP), optionally with graceful-
//       restart stale retention (--gr-restart / --llgr-stale), and
//       detects on what the peers announce. --bgp-peer HOST:PORT
//       (repeatable) dials out as well. curl /sessions for the live
//       session table.
//
// A replay waits out a full shard queue, so its zombie set is batch's
// at any --speed; the live feeds (--tcp-port, --bgp-listen,
// --tap-demo) never slow down for the detector: they drop and count.
//
// Endpoints: /live/zombies (JSON snapshot, ETag = epoch), /live/events
// (SSE), /live/stats (shard health), /sessions (BGP mode), /tsdb/* and
// /alerts (the time-series store and its alert rules, sampled every
// second), plus the standard zsobs set (/metrics, /healthz, /spans,
// /journal/tail, /causal, /profile, /heap). While HTTP is served, a
// loopback subscriber reads /live/events to measure end-to-end
// delivery latency (/latency).
//
// Each listener (--http-port, --tcp-port, --bgp-listen) runs on one
// event loop and holds at most 64 connections at once; SSE frames go
// out as they are published, with no polling interval to tune. The
// telemetry options are the ones every long-running tool shares
// (obs/session.hpp).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "beacon/schedule.hpp"
#include "live/bgp_feed.hpp"
#include "live/feed.hpp"
#include "live/loopback.hpp"
#include "live/service.hpp"
#include "netbase/time.hpp"
#include "obs/journal.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"

using namespace zombiescope;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--replay FILE | --tcp-port N | --tap-demo | --bgp-listen N)\n"
      "          [--bgp-peer HOST:PORT]... [--local-asn N]\n"
      "          [--gr-restart SECONDS] [--llgr-stale SECONDS]\n"
      "          [--speed N] [--duration WALL_SECONDS]\n"
      "          [--schedule ris|daily|fifteen --start YYYY-MM-DD --end YYYY-MM-DD]\n"
      "          [--shards N] [--queue-depth N] [--threshold MINUTES]\n"
      "          [--print-zombies] [--stale-after SECONDS]\n%s",
      argv0, obs::Session::kUsage);
  std::exit(2);
}

volatile std::sig_atomic_t g_interrupted = 0;
void on_signal(int) { g_interrupted = 1; }

}  // namespace

int main(int argc, char** argv) {
  obs::Session session("zslived", obs::Session::Kind::kDaemon);
  std::string replay_path;
  int tcp_port = -1;
  bool tap_demo = false;
  int bgp_port = -1;
  std::vector<std::string> bgp_peers;
  std::uint32_t local_asn = 64999;
  long gr_restart = 0;   // > 0 enables graceful-restart retention
  long llgr_stale = 0;   // > 0 additionally enables LLGR
  double speed = 0.0;  // replay: <= 0 = max; tap: <= 0 = default 60
  long duration = 0;   // wall seconds; 0 = until the feed ends (replay) / forever
  std::string schedule;
  netbase::TimePoint start = 0;
  netbase::TimePoint end = 0;
  live::LiveConfig live_config;
  bool print_zombies = false;
  // /healthz readiness threshold: 0 keeps the plain liveness probe;
  // > 0 answers 503 degraded once no shard published within it.
  double stale_after = 0.0;

  const bool parsed = session.parse(argc, argv, [&](const std::string& arg, const auto& value) {
    if (arg == "--replay") replay_path = value();
    else if (arg == "--tcp-port") tcp_port = std::stoi(value());
    else if (arg == "--tap-demo") tap_demo = true;
    else if (arg == "--bgp-listen") bgp_port = std::stoi(value());
    else if (arg == "--bgp-peer") bgp_peers.push_back(value());
    else if (arg == "--local-asn") local_asn = static_cast<std::uint32_t>(std::stoul(value()));
    else if (arg == "--gr-restart") gr_restart = std::stol(value());
    else if (arg == "--llgr-stale") llgr_stale = std::stol(value());
    else if (arg == "--speed") speed = std::stod(value());
    else if (arg == "--duration") duration = std::stol(value());
    else if (arg == "--schedule") schedule = value();
    else if (arg == "--start") start = netbase::parse_date(value()).value();
    else if (arg == "--end") end = netbase::parse_date(value()).value();
    else if (arg == "--shards")
      live_config.shards = static_cast<std::size_t>(std::stoul(value()));
    else if (arg == "--queue-depth")
      live_config.queue_depth = static_cast<std::size_t>(std::stoul(value()));
    else if (arg == "--threshold")
      live_config.detector.threshold = std::stol(value()) * netbase::kMinute;
    else if (arg == "--print-zombies") print_zombies = true;
    else if (arg == "--stale-after") stale_after = std::stod(value());
    else return false;
    return true;
  });
  if (!parsed) usage(argv[0]);

  const int feed_modes = (replay_path.empty() ? 0 : 1) + (tcp_port >= 0 ? 1 : 0) +
                         (tap_demo ? 1 : 0) + (bgp_port >= 0 ? 1 : 0);
  if (feed_modes != 1) {
    std::fprintf(stderr,
                 "error: pick exactly one of --replay / --tcp-port / --tap-demo "
                 "/ --bgp-listen\n");
    usage(argv[0]);
  }
  if (!bgp_peers.empty() && bgp_port < 0) {
    std::fprintf(stderr, "error: --bgp-peer needs --bgp-listen (0 = ephemeral)\n");
    usage(argv[0]);
  }
  if (!schedule.empty() && (start == 0 || end == 0 || end <= start)) {
    std::fprintf(stderr, "error: --schedule needs --start and --end\n");
    usage(argv[0]);
  }
  // Beacon expectations: replay/tcp/bgp use the operator-provided
  // schedule; the tap generates its own.
  std::vector<beacon::BeaconEvent> events;
  if (!schedule.empty()) {
    auto named = beacon::schedule_events(schedule, start, end);
    if (!named.has_value()) {
      std::fprintf(stderr, "error: unknown schedule '%s'\n", schedule.c_str());
      usage(argv[0]);
    }
    events = std::move(*named);
  }
  if (!session.start()) return 1;

  // The tap demo defaults to a threshold scaled to its short beacon
  // cycle so transitions happen within a brief soak.
  if (tap_demo && live_config.detector.threshold == 90 * netbase::kMinute) {
    live_config.detector.threshold = 5 * netbase::kMinute;
  }

  // A replay is an archive, not a wire: it waits out backpressure
  // instead of dropping, so its zombie set is batch's at any --speed.
  live_config.block_on_full = !replay_path.empty();
  live::LiveService service(live_config);
  service.start();

  live::SimTapConfig tap_config;
  if (tap_demo) {
    tap_config.speed = speed > 0 ? speed : 60.0;
    if (duration > 0) {
      tap_config.duration =
          static_cast<netbase::Duration>(static_cast<double>(duration) * tap_config.speed);
    }
  }
  std::unique_ptr<live::FeedSource> feed;
  live::BgpFeedSource* bgp_feed = nullptr;  // borrowed view of `feed`
  try {
    if (!replay_path.empty()) {
      feed = live::ReplayFeedSource::from_file(replay_path, speed);
    } else if (tcp_port >= 0) {
      feed = std::make_unique<live::TcpNdjsonFeedSource>(
          static_cast<std::uint16_t>(tcp_port));
      std::fprintf(stderr, "NDJSON feed on port %u\n",
                   static_cast<live::TcpNdjsonFeedSource*>(feed.get())->port());
    } else if (bgp_port >= 0) {
      wire::SpeakerConfig speaker_config;
      speaker_config.local_asn = local_asn;
      if (gr_restart > 0) {
        speaker_config.retention.gr_enabled = true;
        speaker_config.advertised_restart_time = gr_restart;
        if (llgr_stale > 0) {
          speaker_config.retention.llgr_enabled = true;
          speaker_config.advertised_llgr_stale_time = llgr_stale;
        }
      }
      auto bgp = std::make_unique<live::BgpFeedSource>(
          speaker_config, static_cast<std::uint16_t>(bgp_port));
      for (const std::string& peer : bgp_peers) {
        const auto colon = peer.rfind(':');
        if (colon == std::string::npos) {
          std::fprintf(stderr, "error: --bgp-peer wants HOST:PORT, got '%s'\n",
                       peer.c_str());
          usage(argv[0]);
        }
        bgp->connect_to(peer.substr(0, colon),
                        static_cast<std::uint16_t>(
                            std::stoul(peer.substr(colon + 1))));
      }
      bgp_feed = bgp.get();
      std::fprintf(stderr, "BGP feed on port %u\n", bgp->port());
      feed = std::move(bgp);
    } else {
      auto tap = std::make_unique<live::SimTapFeedSource>(tap_config);
      events = tap->schedule();
      feed = std::move(tap);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  for (const beacon::BeaconEvent& event : events) service.expect(event);

  // The session's time-series store samples the registries plus the
  // service probes every second and watches the default alert rules.
  // The probes reference `service`, so the session stops before it.
  obs::Tsdb& tsdb = session.tsdb();
  tsdb.add_probe("live.snapshot_age_seconds", obs::SeriesKind::kGauge,
                 [&service] {
                   const double age = service.newest_publish_age_seconds();
                   return age < 0.0 ? 0.0 : age;
                 });
  tsdb.add_probe("live.queue_depth", obs::SeriesKind::kGauge, [&service] {
    std::size_t depth = 0;
    for (const live::ShardStats& s : service.stats()) depth += s.queue_depth;
    return static_cast<double>(depth);
  });
  tsdb.add_probe("live.active_zombies", obs::SeriesKind::kGauge, [&service] {
    std::size_t active = 0;
    for (const live::ShardStats& s : service.stats()) {
      active += s.active_zombies;
    }
    return static_cast<double>(active);
  });

  // Ingest drops: any sustained drop rate is a capacity problem.
  obs::AlertRule drops;
  drops.name = "queue_drops";
  drops.metric = "live.ingest_dropped_total";
  drops.mode = obs::AlertRule::Mode::kRate;
  drops.threshold = 0.0;
  drops.for_seconds = 30.0;
  drops.clear_for_seconds = 15.0;
  tsdb.add_rule(drops);

  // Delivery-latency regression: e2e p99 above 2x its own trailing
  // 5-minute baseline for a minute (hysteresis clears at 1.5x).
  obs::AlertRule p99;
  p99.name = "e2e_p99_regression";
  p99.metric = "latency:live.e2e:p99";
  p99.mode = obs::AlertRule::Mode::kBaselineRatio;
  p99.threshold = 2.0;
  p99.clear_threshold = 1.5;
  p99.for_seconds = 60.0;
  p99.clear_for_seconds = 30.0;
  p99.baseline_window_seconds = 300.0;
  p99.baseline_min_samples = 60;
  tsdb.add_rule(p99);

  // Stale snapshot: every worker wedged (or the service stopped)
  // shows up as a growing publish age well before operators notice.
  obs::AlertRule stale;
  stale.name = "stale_snapshot";
  stale.metric = "live.snapshot_age_seconds";
  stale.threshold = stale_after > 0.0 ? stale_after : 5.0;
  stale.clear_threshold = stale.threshold / 2.0;
  stale.for_seconds = 10.0;
  stale.clear_for_seconds = 5.0;
  tsdb.add_rule(stale);

  // Peer feed quality (zspeerq). The probe polls the merged peer
  // table each cadence, which also refreshes the zs_peer_* gauges
  // the registry sweep stores as peer.* — so noisy/silent counts and
  // the top-K offender slots get 1 s series without any extra work.
  tsdb.add_probe("peer.feeding_count_probe", obs::SeriesKind::kGauge,
                 [&service] {
                   const auto table = service.peers();
                   return static_cast<double>(table->feeding_count);
                 });

  // Every peer went quiet (kBelow: the feed floor dropped under 1
  // feeding peer) while the daemon keeps running — the exact failure
  // mode behind the paper's looking-glass disagreements. for=30 s
  // tolerates startup: the first updates arrive well inside that.
  obs::AlertRule silent_peers;
  silent_peers.name = "peers_silent";
  silent_peers.metric = "peer.feeding_count_probe";
  silent_peers.op = obs::AlertRule::Op::kBelow;
  silent_peers.threshold = 1.0;
  silent_peers.for_seconds = 30.0;
  silent_peers.clear_for_seconds = 5.0;
  tsdb.add_rule(silent_peers);

  // A noisy-peer population spike: statistically-excluded peers
  // sustained above zero means zombie counts upstream of the filter
  // are inflated and the feed needs operator attention.
  obs::AlertRule noisy_spike;
  noisy_spike.name = "noisy_count_spike";
  noisy_spike.metric = "peer.noisy_count";
  noisy_spike.threshold = 0.0;
  noisy_spike.for_seconds = 30.0;
  noisy_spike.clear_for_seconds = 15.0;
  tsdb.add_rule(noisy_spike);


  if (session.serving_http()) {
    service.attach_http(session.http(), stale_after, [&tsdb]() -> std::string {
      const std::string firing = tsdb.firing_names();
      return firing.empty() ? std::string() : "alerts firing: " + firing;
    });
    if (bgp_feed != nullptr) bgp_feed->attach_http(session.http());
  }
  if (!session.serve("/live/zombies")) return 1;
  std::unique_ptr<live::LoopbackLatencyClient> e2e_client;
  if (session.serving_http()) {
    // Subscribe to our own /live/events so GET /latency (and the
    // "stages" block of /live/stats) reports true end-to-end
    // delivery latency, not just the internal stage times.
    e2e_client = std::make_unique<live::LoopbackLatencyClient>(session.http().port());
    if (!e2e_client->start()) {
      std::fprintf(stderr, "warning: loopback latency subscriber failed to connect\n");
      e2e_client.reset();
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  live::FeedSource::RunStats feed_stats;
  std::atomic<bool> feed_done{false};
  std::thread feeder([&] {
    obs::ScopedSpan span("zslived.feed");
    feed_stats = feed->run(service);
    feed_done.store(true, std::memory_order_release);
  });

  // Main thread: journal pump + wall-clock bound + signal watch. The
  // feeder returns on its own for a finite replay/tap; --duration (or
  // Ctrl-C) bounds the open-ended feeds.
  const auto wall0 = std::chrono::steady_clock::now();
  bool stop_requested = false;
  while (!feed_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    obs::Journal::global().pump();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    if (!stop_requested &&
        (g_interrupted != 0 || (duration > 0 && elapsed >= static_cast<double>(duration)))) {
      feed->stop();
      stop_requested = true;
    }
  }
  feeder.join();

  // The replay delivered everything; fire the deadlines that fall
  // after the last record so the final state matches batch detection.
  if (!replay_path.empty()) service.finalize();

  std::fprintf(stderr,
               "feed done: %llu record(s), %llu parse error(s); "
               "%llu processed, %llu dropped, epoch %llu\n",
               static_cast<unsigned long long>(feed_stats.records),
               static_cast<unsigned long long>(feed_stats.parse_errors),
               static_cast<unsigned long long>(service.processed()),
               static_cast<unsigned long long>(service.drops()),
               static_cast<unsigned long long>(service.epoch()));
  if (print_zombies) std::printf("%s\n", service.zombies_json().c_str());

  const bool written = session.finish();
  if (e2e_client) {
    std::fprintf(stderr, "loopback e2e: %llu delivery sample(s)\n",
                 static_cast<unsigned long long>(e2e_client->samples()));
    e2e_client->stop();
  }
  session.stop();
  service.stop();
  return written ? 0 : 1;
}
