#include "workloads.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "live/bgp_feed.hpp"
#include "live/service.hpp"
#include "mrt/codec.hpp"
#include "obs/http.hpp"
#include "openloop.hpp"
#include "subscribers.hpp"
#include "sysstat.hpp"
#include "wire/bridge.hpp"
#include "wire/message.hpp"
#include "zombie/longlived.hpp"
#include "zombie/noisy.hpp"
#include "zombie/state.hpp"

namespace zsbench {

namespace zs = zombiescope;
using zs::netbase::kMinute;

namespace {

constexpr zs::netbase::Duration kThreshold = 90 * kMinute;

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

bool peer_of(const zs::mrt::MrtRecord& record, zs::zombie::PeerKey& peer) {
  if (const auto* msg = std::get_if<zs::mrt::Bgp4mpMessage>(&record)) {
    peer = {msg->peer_asn, msg->peer_address};
    return true;
  }
  if (const auto* change = std::get_if<zs::mrt::Bgp4mpStateChange>(&record)) {
    peer = {change->peer_asn, change->peer_address};
    return true;
  }
  return false;
}

void check_pairs(const PairList& got, const Inputs& in, const PairList& want, const char* what,
                 PassResult& r) {
  const std::string diff = compare_pairs(got, want, in.deadline_ties);
  if (!diff.empty()) r.errors.push_back(std::string(what) + ": " + diff);
}

PairList find_deadline_ties(std::span<const zs::mrt::MrtRecord> records,
                            std::span<const zs::beacon::BeaconEvent> events) {
  std::set<std::pair<zs::netbase::Prefix, zs::netbase::TimePoint>> deadlines;
  for (const auto& event : events)
    if (!event.superseded) deadlines.emplace(event.prefix, event.withdraw_time + kThreshold);
  PairList ties;
  for (const auto& record : records) {
    const auto* msg = std::get_if<zs::mrt::Bgp4mpMessage>(&record);
    if (msg == nullptr) continue;
    for (const auto& prefix : msg->update.withdrawn)
      if (deadlines.contains({prefix, msg->timestamp}))
        ties.emplace_back(prefix, zs::zombie::PeerKey{msg->peer_asn, msg->peer_address});
  }
  std::sort(ties.begin(), ties.end());
  ties.erase(std::unique(ties.begin(), ties.end()), ties.end());
  return ties;
}

zs::live::LiveConfig live_config(bool block_on_full) {
  zs::live::LiveConfig config;
  config.shards = kLiveShards;
  config.block_on_full = block_on_full;
  // A drop-on-full feed gets zslived's --queue-depth 65536: at the
  // paced rate that absorbs a stall of about a second, where the
  // default 8192 dropped records on a shared box (and a drop makes the
  // live set differ from batch).
  if (!block_on_full) config.queue_depth = 65536;
  config.detector.threshold = kThreshold;
  return config;
}

/// Transitions the service published (emerge + resurrect + die).
std::uint64_t published_transitions(const zs::live::LiveService& service) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < service.shards(); ++i) {
    const auto snap = service.snapshot(i);
    n += snap->emerged + snap->resurrected + snap->died;
  }
  return n;
}

/// Shard-side per-layer values shared by the closed-loop live passes.
void shard_layers(const zs::live::LiveService& service, double records,
                  PassResult& r) {
  double sum = 0.0;
  double max = 0.0;
  const auto stats = service.stats();
  for (const auto& shard : stats) {
    sum += shard.busy_seconds;
    max = std::max(max, shard.busy_seconds);
  }
  r.layer["live.shard_busy_ns_per_record"] = service.max_worker_busy_seconds() * 1e9 / records;
  r.layer["live.shard_skew"] = sum > 0 ? max / (sum / static_cast<double>(stats.size())) : 0.0;
  r.layer["live.shard_busy_sum_s"] = sum;
}

/// Self time of the pass span, as a share of the pass: the part of
/// the end-to-end time no timed library call accounts for.
double unattributed_pct(const SpanLog& spans, int root) {
  const SpanRecord& pass = spans.spans().at(static_cast<std::size_t>(root));
  const double pass_ns = static_cast<double>(pass.end_ns - pass.start_ns);
  return pass_ns > 0 ? 100.0 * static_cast<double>(spans.self_ns(root)) / pass_ns : 0.0;
}

double total_ms(const std::map<std::string, SpanTotals>& totals, const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns) * 1e-6;
}

// --- batch_archive ---------------------------------------------------

std::string batch_updates_path(const Inputs& in) { return in.work_dir + "/batch.updates.mrt"; }
std::string batch_ribs_path(const Inputs& in) { return in.work_dir + "/batch.ribs.mrt"; }

/// Batch set-up: hand the in-memory archive to the batch tool, as the
/// files it reads. Returns the time of the writes; the flush to disk
/// after them is untimed, so no writeback overlaps a later pass.
double write_batch_files(const Inputs& in) {
  const std::uint64_t start = now_ns();
  write_bytes(batch_updates_path(in), in.archive.updates_mrt);
  write_bytes(batch_ribs_path(in), in.archive.ribs_mrt);
  const double seconds = seconds_since(start);
  for (const std::string& path : {batch_updates_path(in), batch_ribs_path(in)}) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fdatasync(fd);
      ::close(fd);
    }
  }
  return seconds;
}

PassResult batch_pass(const Inputs& in, SpanLog* spans) {
  PassResult r;
  const std::string updates_path = batch_updates_path(in);
  const std::string ribs_path = batch_ribs_path(in);
  const auto& events = in.archive.events;

  const double cpu0 = process_cpu_s();
  const std::uint64_t ctx0 = process_ctx_switches();
  const std::uint64_t start = now_ns();
  std::vector<zs::mrt::MrtRecord> updates;
  zs::zombie::LongLivedResult all_peers;
  zs::zombie::LongLivedResult result;
  std::vector<zs::zombie::SweepPoint> sweep;
  std::vector<zs::zombie::OutbreakLifespan> lifespans;
  int root = -1;
  {
    Span pass(spans, "batch_archive.pass");
    root = pass.index();
    {
      Span s(spans, "mrt.read_file.updates");
      updates = zs::mrt::read_file(updates_path);
    }
    zs::zombie::StateTracker tracker;
    {
      Span s(spans, "zombie.state_apply");
      for (const auto& record : updates) tracker.apply(record);
    }
    {
      Span s(spans, "zombie.detect.all_peers");
      all_peers = zs::zombie::LongLivedZombieDetector{zs::zombie::LongLivedConfig{}}.detect(
          updates, events, kThreshold);
    }
    std::vector<zs::zombie::ZombieRoute> routes;
    for (const auto& outbreak : all_peers.outbreaks)
      routes.insert(routes.end(), outbreak.routes.begin(), outbreak.routes.end());
    zs::zombie::LongLivedConfig config;
    {
      Span s(spans, "zombie.noisy_filter");
      config.excluded_peers = zs::zombie::NoisyPeerFilter{}.noisy_peer_keys(
          routes, tracker.peers(), all_peers.total_announcements);
    }
    const zs::zombie::LongLivedZombieDetector detector{config};
    {
      Span s(spans, "zombie.detect");
      result = detector.detect(updates, events, kThreshold);
    }
    std::vector<zs::netbase::Duration> thresholds;
    for (int minutes = 90; minutes <= 180; minutes += 10) thresholds.push_back(minutes * kMinute);
    {
      Span s(spans, "zombie.sweep");
      sweep = detector.sweep(updates, events, thresholds);
    }
    std::vector<zs::mrt::MrtRecord> ribs;
    {
      Span s(spans, "mrt.read_file.ribs");
      ribs = zs::mrt::read_file(ribs_path);
    }
    {
      Span s(spans, "zombie.lifespan");
      lifespans = zs::zombie::LifespanAnalyzer{config}.analyze(ribs, events, 8 * zs::netbase::kHour);
    }
  }
  r.wall_s = seconds_since(start);
  r.cpu_s = process_cpu_s() - cpu0;
  r.ctx_switches = process_ctx_switches() - ctx0;
  r.records = static_cast<double>(updates.size());
  r.attempted = updates.size();

  // Output checks: the all-peer pass is the 90-minute batch pair set;
  // the sweep's first point must agree with the filtered detect.
  PairList pairs;
  for (const auto& outbreak : all_peers.outbreaks)
    for (const auto& route : outbreak.routes) pairs.emplace_back(outbreak.prefix, route.peer);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  if (pairs != in.pairs) r.errors.push_back("batch_archive: pairs differ from the reference");
  if (in.archive.pinned_pairs != 0 && pairs.size() != in.archive.pinned_pairs)
    r.errors.push_back("batch_archive: " + std::to_string(pairs.size()) +
                       " pairs, the default seed pins " +
                       std::to_string(in.archive.pinned_pairs));
  if (updates.size() != in.updates.size())
    r.errors.push_back("batch_archive: decoded a different record count");
  if (sweep.size() != 10 || sweep.front().outbreaks != static_cast<int>(result.outbreaks.size()) ||
      sweep.front().routes != result.route_count())
    r.errors.push_back("batch_archive: sweep at 90 min disagrees with detect");
  r.report.push_back("batch_archive: " + std::to_string(pairs.size()) + " pairs at 90 min, " +
                     std::to_string(result.outbreaks.size()) + " outbreaks with noisy peers excluded, " +
                     std::to_string(lifespans.size()) + " RIB lifespans");
  for (const auto& point : sweep)
    r.report.push_back("  fig2 sweep " + std::to_string(point.threshold / kMinute) +
                       " min: " + std::to_string(point.outbreaks) + " outbreaks, " +
                       std::to_string(point.routes) + " routes");

  if (spans != nullptr) {
    const auto totals = spans->totals();
    r.layer["zombie.state_apply_ns_per_record"] =
        total_ms(totals, "zombie.state_apply") * 1e6 / r.records;
    r.layer["zombie.detect_ms"] = total_ms(totals, "zombie.detect");
    r.layer["zombie.sweep_ms"] = total_ms(totals, "zombie.sweep");
    r.layer["zombie.noisy_filter_ms"] = total_ms(totals, "zombie.noisy_filter");
    r.layer["zombie.lifespan_ms"] = total_ms(totals, "zombie.lifespan");
    r.unattributed_pct = unattributed_pct(*spans, root);
  }
  return r;
}

// --- live_saturated ------------------------------------------------

/// A started 2-shard live service with the whole schedule expected.
std::unique_ptr<zs::live::LiveService> start_service(const Inputs& in, bool block_on_full) {
  auto service = std::make_unique<zs::live::LiveService>(live_config(block_on_full));
  service->start();
  for (const auto& event : in.archive.events) service->expect(event);
  return service;
}

PassResult saturated_pass(const Inputs& in, SpanLog* spans) {
  PassResult r;
  const auto service = start_service(in, /*block_on_full=*/true);
  const double cpu0 = process_cpu_s();
  const std::uint64_t ctx0 = process_ctx_switches();
  const std::uint64_t epoch0 = service->epoch();
  const std::uint64_t start = now_ns();
  std::uint64_t refused = 0;
  std::vector<double> zombies_json_us;  // traced: direct snapshot reads
  int root = -1;
  {
    Span pass(spans, "live_saturated.pass");
    root = pass.index();
    for (std::size_t i = 0; i < in.updates.size(); ++i) {
      if (spans != nullptr && i % 4096 == 0) {
        Span s(spans, "live.zombies_json");
        const std::uint64_t read_start = now_ns();
        if (!service->zombies_json().empty())
          zombies_json_us.push_back(static_cast<double>(now_ns() - read_start) * 1e-3);
      }
      Span s(spans, "live.submit");
      if (!service->submit(in.updates[i])) ++refused;
    }
    Span s(spans, "live.finalize");
    service->finalize();
  }
  r.wall_s = seconds_since(start);
  r.cpu_s = process_cpu_s() - cpu0;
  r.ctx_switches = process_ctx_switches() - ctx0;
  r.records = static_cast<double>(in.updates.size());
  r.attempted = in.updates.size();
  r.failed = std::max(refused, service->drops());
  check_pairs(service->emerged_pairs(), in, in.pairs, "live_saturated", r);

  if (spans != nullptr) {
    shard_layers(*service, r.records, r);
    r.layer["live.publishes_per_krecord"] =
        static_cast<double>(service->epoch() - epoch0) * 1e3 / r.records;
    r.layer["live.zombies_json_us"] = median(zombies_json_us);
    const auto totals = spans->totals();
    r.layer["live.submit_ns_per_record"] = total_ms(totals, "live.submit") * 1e6 / r.records;
    r.layer["live.finalize_ms"] = total_ms(totals, "live.finalize");
    r.unattributed_pct = unattributed_pct(*spans, root);
  }
  return r;
}

// --- live_paced ------------------------------------------------------

/// A started 2-shard drop-on-full service serving HTTP on an ephemeral
/// port, one SSE subscriber on /live/events and one /live/zombies
/// poller. Members tear down in reverse: clients, server, service.
struct PacedRig {
  explicit PacedRig(const Inputs& in) : service(start_service(in, /*block_on_full=*/false)) {
    service->attach_http(http);
    if (!http.start(0)) throw std::runtime_error("zsbench: cannot bind an HTTP port");
    sub = std::make_unique<SseSubscriber>(http.port(), "/live/events");
    poller = std::make_unique<SnapshotPoller>(http.port(), "/live/zombies", kPollPeriodMs);
  }

  std::unique_ptr<zs::live::LiveService> service;
  zs::obs::HttpServer http;
  std::unique_ptr<SseSubscriber> sub;
  std::unique_ptr<SnapshotPoller> poller;
};

PassResult paced_pass(const Inputs& in, SpanLog* spans) {
  PassResult r;
  PacedRig rig(in);
  zs::live::LiveService& service = *rig.service;

  const double cpu0 = process_cpu_s();
  const std::uint64_t ctx0 = process_ctx_switches();
  const auto lag0 = service.lag_snapshot();
  const std::uint64_t start = now_ns();
  std::uint64_t refused = 0;
  std::vector<std::uint64_t> late_ns;
  int root = -1;
  {
    Span pass(spans, "live_paced.pass");
    root = pass.index();
    const SteadyClock::time_point schedule_start = SteadyClock::now();
    late_ns = run_open_loop(
        schedule_start, in.paced_offsets,
        [&](std::size_t i, SteadyClock::time_point due) {
          Span s(spans, "live.submit");
          if (!service.submit(zs::live::FeedItem{in.updates[i], due})) ++refused;
        },
        spans);
    {
      // The schedule lasts the whole window, however sparse its tail.
      Span wait(spans, "gen.wait");
      std::this_thread::sleep_until(schedule_start + in.paced_window);
    }
    Span s(spans, "live.finalize");
    service.finalize();
  }
  r.wall_s = seconds_since(start);
  // Every published transition must reach the subscriber (bounded wait).
  const std::uint64_t transitions = published_transitions(service);
  const std::uint64_t deadline = now_ns() + 3'000'000'000ull;
  while (rig.sub->frames() < transitions && now_ns() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  rig.poller->stop();
  rig.sub->stop();
  r.cpu_s = process_cpu_s() - cpu0 - rig.sub->cpu_s() - rig.poller->cpu_s();
  r.ctx_switches = process_ctx_switches() - ctx0;
  r.records = static_cast<double>(in.paced_offsets.size());
  const FrameScanner& scan = rig.sub->scanner();
  const auto& gets = rig.poller->round_trip_ms();
  r.attempted = in.paced_offsets.size() + transitions + gets.size() + rig.poller->failures();
  const std::uint64_t missing = scan.frames() < transitions ? transitions - scan.frames() : 0;
  r.failed = std::max(refused, service.drops()) + std::max(missing, scan.missed()) +
             rig.poller->failures();
  check_pairs(service.emerged_pairs(), in, in.paced_pairs, "live_paced", r);

  std::vector<double> late_ms;
  late_ms.reserve(late_ns.size());
  for (const std::uint64_t ns : late_ns) late_ms.push_back(static_cast<double>(ns) * 1e-6);
  r.layer["gen.late_p99_ms"] = quantile(late_ms, 0.99);
  r.layer["detect_latency_p50_ms"] = quantile(scan.latency_ms(), 0.50);
  r.layer["detect_latency_p99_ms"] = quantile(scan.latency_ms(), 0.99);
  r.layer["snapshot_read_p50_ms"] = quantile(gets, 0.50);
  r.layer["snapshot_read_p99_ms"] = quantile(gets, 0.99);
  if (spans != nullptr) {
    const auto lag = service.lag_snapshot().diff_since(lag0);
    r.layer["live.queue_wait_p50_us"] = lag.quantile_ns(0.50) * 1e-3;
    r.layer["live.queue_wait_p99_us"] = lag.quantile_ns(0.99) * 1e-3;
    r.layer["http.sse_frames_per_transition"] =
        transitions > 0 ? static_cast<double>(rig.sub->scanner().frames()) /
                              static_cast<double>(transitions)
                        : 0.0;
    r.layer["http.zombies_get_bytes"] = median(rig.poller->bytes());
    r.unattributed_pct = unattributed_pct(*spans, root);
  }
  return r;
}

// --- wire_replay -----------------------------------------------------

/// A started service fed by a BgpFeedSource listening on an ephemeral
/// port (feed thread running), proven reachable by one handshake.
struct WireRig {
  explicit WireRig(const Inputs& in) : service(start_service(in, /*block_on_full=*/true)) {
    zs::wire::SpeakerConfig speaker;
    speaker.hold_time = 3600;  // replay pacing is bursty
    speaker.keepalive_interval = 1200;
    feed = std::make_unique<zs::live::BgpFeedSource>(speaker, 0);
    feeder = std::thread([this] {
      const double cpu0 = thread_cpu_s();
      feed->run(*service);
      feed_cpu_s = thread_cpu_s() - cpu0;
    });
    const std::uint64_t handshake_start = now_ns();
    try {
      probe_handshake();
    } catch (...) {
      stop_feed();  // the destructor does not run for a failed constructor
      throw;
    }
    handshake_ms = static_cast<double>(now_ns() - handshake_start) * 1e-6;
  }
  ~WireRig() { stop_feed(); }
  WireRig(const WireRig&) = delete;
  WireRig& operator=(const WireRig&) = delete;

  /// One bridge-flagged session (so its lifecycle is not a routing
  /// event): connect, handshake, Cease, and wait until it is gone.
  void probe_handshake() {
    const int fd = zs::wire::wire_connect("127.0.0.1", feed->port());
    try {
      zs::wire::wire_handshake(fd, 64512, 0xc00002fe, 3600,
                               zs::netbase::IpAddress::parse("192.0.2.254"));
      zs::wire::NotificationMessage goodbye;
      goodbye.code = zs::wire::NotifyCode::kCease;
      goodbye.subcode = zs::wire::kCeaseAdminShutdown;
      const auto bytes = goodbye.encode();
      (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    } catch (...) {
      ::close(fd);
      throw;
    }
    ::close(fd);
    drain();
  }

  /// Waits until the speaker has no session left (bounded).
  void drain() {
    const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
    while (!feed->speaker().snapshot().empty() && now_ns() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  void stop_feed() {
    if (!feeder.joinable()) return;
    feed->stop();
    feeder.join();
  }

  std::unique_ptr<zs::live::LiveService> service;
  std::unique_ptr<zs::live::BgpFeedSource> feed;
  double feed_cpu_s = 0.0;
  double handshake_ms = 0.0;
  std::thread feeder;
};

PassResult wire_pass(const Inputs& in, SpanLog* spans) {
  PassResult r;
  WireRig rig(in);
  zs::live::LiveService& service = *rig.service;

  const double cpu0 = process_cpu_s();
  const std::uint64_t ctx0 = process_ctx_switches();
  const std::uint64_t start = now_ns();
  zs::wire::BridgeStats bridge;
  double client_cpu_s = 0.0;
  int root = -1;
  {
    Span pass(spans, "wire_replay.pass");
    root = pass.index();
    {
      Span s(spans, "wire.replay_over_wire");
      const double client0 = thread_cpu_s();
      zs::wire::BridgeOptions options;
      options.hold_time = 3600;
      bridge = zs::wire::replay_over_wire(in.wire, "127.0.0.1", rig.feed->port(), options);
      client_cpu_s = thread_cpu_s() - client0;
    }
    {
      Span s(spans, "wire.feed_drain");
      rig.drain();
      rig.stop_feed();
    }
    Span s(spans, "live.finalize");
    service.finalize();
  }
  r.wall_s = seconds_since(start);
  r.cpu_s = process_cpu_s() - cpu0 - client_cpu_s;
  r.ctx_switches = process_ctx_switches() - ctx0;
  r.records = static_cast<double>(in.wire.size());
  const std::size_t sessions = in.archive.wire_peers.size();
  r.attempted = in.wire.size() + sessions;
  r.failed = service.drops() + (bridge.sessions < sessions ? sessions - bridge.sessions : 0);
  check_pairs(service.emerged_pairs(), in, in.wire_pairs, "wire_replay", r);

  if (spans != nullptr) {
    const double msgs = static_cast<double>(std::max<std::size_t>(bridge.messages_sent, 1));
    r.layer["wire.client_cpu_ns_per_msg"] = client_cpu_s * 1e9 / msgs;
    r.layer["wire.feed_cpu_ns_per_msg"] = rig.feed_cpu_s * 1e9 / msgs;
    r.layer["wire.bytes_per_record"] = static_cast<double>(bridge.bytes_sent) / r.records;
    r.layer["wire.handshake_ms"] = rig.handshake_ms;
    r.unattributed_pct = unattributed_pct(*spans, root);
  }
  service.stop();
  return r;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kBatchArchive:
      return "batch_archive";
    case Workload::kLiveSaturated:
      return "live_saturated";
    case Workload::kLivePaced:
      return "live_paced";
    case Workload::kWireReplay:
      return "wire_replay";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload& out) {
  for (const Workload w : {Workload::kBatchArchive, Workload::kLiveSaturated,
                           Workload::kLivePaced, Workload::kWireReplay}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

PairList batch_pairs(std::span<const zs::mrt::MrtRecord> records,
                     std::span<const zs::beacon::BeaconEvent> events) {
  const zs::zombie::LongLivedZombieDetector detector{zs::zombie::LongLivedConfig{}};
  PairList pairs;
  for (const auto& outbreak : detector.detect(records, events, kThreshold).outbreaks)
    for (const auto& route : outbreak.routes) pairs.emplace_back(outbreak.prefix, route.peer);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

std::string compare_pairs(const PairList& live, const PairList& batch, const PairList& ties) {
  PairList missing;
  PairList extra;
  std::set_difference(batch.begin(), batch.end(), live.begin(), live.end(),
                      std::back_inserter(missing));
  std::set_difference(live.begin(), live.end(), batch.begin(), batch.end(),
                      std::back_inserter(extra));
  PairList unexplained;
  std::set_difference(extra.begin(), extra.end(), ties.begin(), ties.end(),
                      std::back_inserter(unexplained));
  if (missing.empty() && unexplained.empty()) return {};
  return std::to_string(live.size()) + " emerged pairs, batch has " +
         std::to_string(batch.size()) + " (" + std::to_string(missing.size()) + " missing, " +
         std::to_string(unexplained.size()) + " extra beyond deadline ties)";
}

Inputs prepare_inputs(const std::string& dir, double seconds) {
  Inputs in;
  in.archive = read_archive(dir);
  in.work_dir = dir;
  in.updates = zs::mrt::decode_all(in.archive.updates_mrt);
  if (in.updates.empty()) throw std::runtime_error("zsbench: empty update archive");
  in.pairs = batch_pairs(in.updates, in.archive.events);
  in.deadline_ties = find_deadline_ties(in.updates, in.archive.events);

  // live_paced: records due within the run at kPacedSpeed.
  const zs::netbase::TimePoint base = zs::mrt::record_timestamp(in.updates.front());
  in.paced_window = std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  const double window_ns = seconds * 1e9;
  for (const auto& record : in.updates) {
    const double offset_ns =
        static_cast<double>(zs::mrt::record_timestamp(record) - base) * 1e9 / kPacedSpeed;
    if (offset_ns >= window_ns) break;
    in.paced_offsets.emplace_back(static_cast<std::int64_t>(offset_ns));
  }
  in.paced_pairs = batch_pairs(std::span(in.updates).first(in.paced_offsets.size()),
                               in.archive.events);

  // wire_replay: every update and state change of the chosen sessions.
  const std::set<zs::zombie::PeerKey> chosen(in.archive.wire_peers.begin(),
                                              in.archive.wire_peers.end());
  zs::zombie::PeerKey peer;
  for (const auto& record : in.updates)
    if (peer_of(record, peer) && chosen.contains(peer)) in.wire.push_back(record);
  in.wire_pairs = batch_pairs(in.wire, in.archive.events);
  if (in.wire_pairs.empty())
    throw std::runtime_error("zsbench: the wire sessions have no batch zombies");
  write_batch_files(in);
  return in;
}

PassResult run_pass(Workload w, const Inputs& in, SpanLog* spans) {
  switch (w) {
    case Workload::kBatchArchive:
      return batch_pass(in, spans);
    case Workload::kLiveSaturated:
      return saturated_pass(in, spans);
    case Workload::kLivePaced:
      return paced_pass(in, spans);
    case Workload::kWireReplay:
      return wire_pass(in, spans);
  }
  throw std::logic_error("zsbench: unknown workload");
}

double setup_s(Workload w, const Inputs& in) {
  const std::uint64_t start = now_ns();
  switch (w) {
    case Workload::kBatchArchive:
      return write_batch_files(in);
    case Workload::kLiveSaturated: {
      const auto service = start_service(in, /*block_on_full=*/true);
      return seconds_since(start);  // before the service tears down
    }
    case Workload::kLivePaced: {
      const PacedRig rig(in);
      return seconds_since(start);
    }
    case Workload::kWireReplay: {
      const WireRig rig(in);
      return seconds_since(start);
    }
  }
  throw std::logic_error("zsbench: unknown workload");
}

}  // namespace zsbench
