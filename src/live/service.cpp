#include "live/service.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <variant>

#include <cstdio>

#include "obs/causal.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace zombiescope::live {

namespace {

using obs::Journal;
using obs::JournalEvent;
using obs::JournalEventType;

/// CPU time this thread has consumed. Blocked waits don't accrue, so
/// for a shard worker this is pure processing cost — the number the
/// throughput bench needs on a box with fewer cores than shards.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

using SteadyClock = std::chrono::steady_clock;

std::uint64_t steady_ns(SteadyClock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

std::uint64_t elapsed_ns(SteadyClock::time_point from,
                         SteadyClock::time_point to) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

/// Sub-second latencies need more than to_string's 6 decimals.
std::string format_seconds(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9f", seconds);
  return buf;
}

void append_kv(std::string& out, std::string_view key, std::string_view value,
               bool quote) {
  out += '"';
  out += key;
  out += "\":";
  if (quote) out += '"';
  out += value;
  if (quote) out += '"';
}

std::string transition_json(std::string_view type, const netbase::Prefix& prefix,
                            const zombie::PeerKey& peer,
                            netbase::TimePoint withdrawn_at, netbase::TimePoint at,
                            netbase::Duration stuck_for,
                            std::uint64_t ingest_ns) {
  std::string out = "{";
  append_kv(out, "type", type, true);
  out += ',';
  append_kv(out, "prefix", prefix.to_string(), true);
  out += ',';
  append_kv(out, "peer_asn", std::to_string(peer.asn), false);
  out += ',';
  append_kv(out, "peer_address", peer.address.to_string(), true);
  out += ',';
  append_kv(out, "withdrawn_at", std::to_string(withdrawn_at), false);
  out += ',';
  append_kv(out, type == "die" ? "resolved_at" : "raised_at", std::to_string(at),
            false);
  if (type == "die") {
    out += ',';
    append_kv(out, "stuck_seconds", std::to_string(stuck_for), false);
  }
  if (ingest_ns != 0) {
    // steady_clock ns of the feed ingest that triggered this
    // transition. Only comparable inside the emitting process — the
    // loopback subscriber (live/loopback.hpp) uses it to measure true
    // end-to-end delivery latency; remote clients should ignore it.
    out += ',';
    append_kv(out, "ingest_ns", std::to_string(ingest_ns), false);
  }
  out += '}';
  return out;
}

}  // namespace

std::size_t shard_for(const netbase::Prefix& prefix, std::size_t shards) {
  // FNV-1a, not std::hash: the mapping must be identical across
  // processes so per-shard stats line up between a daemon and an
  // offline replay of the same feed.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  const netbase::IpAddress& address = prefix.address();
  mix(static_cast<std::uint8_t>(address.family()));
  for (int i = 0; i < address.byte_length(); ++i) {
    mix(address.bytes()[static_cast<std::size_t>(i)]);
  }
  mix(static_cast<std::uint8_t>(prefix.length()));
  return shards == 0 ? 0 : static_cast<std::size_t>(h % shards);
}

LiveService::LiveService(LiveConfig config)
    : config_(std::move(config)), peer_builder_(config_.peerq) {
  if (config_.shards == 0) config_.shards = 1;
  auto& registry = obs::Registry::global();
  m_records_ = registry.counter("zs_live_records_total");
  m_drops_ = registry.counter("zs_live_ingest_dropped_total");
  m_transitions_ = registry.counter("zs_live_transitions_total");
  if (config_.peerq.enabled) {
    // Bounded cardinality by construction: four aggregates plus
    // 2 x kTopKGauges offender slots, never one series per peer. The
    // registry sweep exposes these to the TSDB as peer.*.
    m_peer_count_ = registry.gauge("zs_peer_count");
    m_peer_noisy_ = registry.gauge("zs_peer_noisy_count");
    m_peer_silent_ = registry.gauge("zs_peer_silent_count");
    m_peer_feeding_ = registry.gauge("zs_peer_feeding_count");
    for (std::size_t r = 0; r < kTopKGauges; ++r) {
      m_peer_topk_ppm_.push_back(
          registry.gauge("zs_peer_topk_stuck_ppm_r" + std::to_string(r)));
      m_peer_topk_asn_.push_back(
          registry.gauge("zs_peer_topk_asn_r" + std::to_string(r)));
    }
  }
  m_lag_ = registry.histogram(
      "zs_live_ingest_lag_seconds",
      {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25,
       0.5, 1.0, 2.5, 5.0});
  // Stage latency surfaces: LatRegistry cell for /latency + bench
  // sections, registry seconds histogram for the Prometheus
  // zs_live_stage_seconds_* _quantile gauges. Both are process-wide
  // singletons keyed by name, so successive LiveService instances
  // accumulate into the same cells (benches diff snapshots instead).
  const std::vector<double> stage_buckets = {
      1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
      1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,  0.25,   0.5,
      1.0,  2.5,    5.0};
  auto& lats = obs::LatRegistry::global();
  const auto wire = [&](StageLat& stage, const char* name) {
    stage.hist = &lats.get(std::string("live.") + name);
    stage.seconds = registry.histogram(
        std::string("zs_live_stage_seconds_") + name, stage_buckets);
  };
  wire(stage_ingest_enqueue_, "ingest_enqueue");
  wire(stage_queue_wait_, "queue_wait");
  wire(stage_detect_, "detect");
  wire(stage_publish_, "publish");
  wire(stage_fanout_, "fanout");
}

LiveService::~LiveService() { stop(); }

void LiveService::resize(std::size_t shards) {
  if (started_) {
    throw std::logic_error(
        "zslive: cannot reshard a started service — withdrawal-phase state "
        "would tear mid-interval; restart with --shards");
  }
  config_.shards = shards == 0 ? 1 : shards;
}

void LiveService::start() {
  if (started_) throw std::logic_error("LiveService::start called twice");
  started_ = true;
  auto& registry = obs::Registry::global();
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>(config_.queue_depth);
    shard->m_depth =
        registry.gauge("zs_live_queue_depth_shard" + std::to_string(i));
    shard->m_active =
        registry.gauge("zs_live_active_zombies_shard" + std::to_string(i));
    // What readers see before the worker's first publish: empty
    // vectors, never null ones.
    auto empty = std::make_shared<ShardSnapshot>();
    empty->zombies = std::make_shared<const std::vector<zombie::ZombieAlert>>();
    empty->emerged_pairs = std::make_shared<const std::vector<EmergedPair>>();
    shard->snap = std::move(empty);
    shards_.push_back(std::move(shard));
  }
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_[i]->worker = std::thread([this, i] { worker_loop(i); });
  }
}

void LiveService::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

bool LiveService::push_to(std::size_t shard, ShardItem&& item) {
  Shard& s = *shards_[shard];
  const bool is_record = item.kind == ShardItem::Kind::kRecord;
  const netbase::TimePoint ts =
      is_record ? mrt::record_timestamp(item.record) : item.advance_to;
  item.enqueued = SteadyClock::now();
  if (item.ingest == SteadyClock::time_point{}) item.ingest = item.enqueued;
  if (is_record) {
    s.submitted.fetch_add(1, std::memory_order_relaxed);
    // Feed read → shard enqueue (parse, routing, per-shard splitting).
    stage_ingest_enqueue_.record_ns(elapsed_ns(item.ingest, item.enqueued));
  }
  const bool ok = config_.block_on_full || !is_record
                      ? s.queue.push_blocking(std::move(item))
                      : s.queue.try_push(std::move(item));
  if (ok) return true;
  const std::uint64_t total = s.dropped.fetch_add(1, std::memory_order_relaxed) + 1;
  m_drops_.inc();
  auto& journal = Journal::global();
  // Sampled: the first drop and every 1024th after — a saturated feed
  // must not saturate the journal too.
  if (journal.enabled(obs::kCatLive) && (total == 1 || (total & 1023u) == 0)) {
    JournalEvent ev;
    ev.type = JournalEventType::kLiveIngestDropped;
    ev.time = ts;
    ev.a = static_cast<std::int64_t>(shard);
    ev.b = static_cast<std::int64_t>(total);
    journal.emit<obs::kCatLive>(ev);
  }
  return false;
}

bool LiveService::submit(const mrt::MrtRecord& record) {
  return submit(FeedItem{record, SteadyClock::now()});
}

bool LiveService::submit(FeedItem&& fed) {
  if (!started_) throw std::logic_error("LiveService::submit before start()");
  if (fed.ingest == SteadyClock::time_point{}) fed.ingest = SteadyClock::now();
  mrt::MrtRecord& record = fed.record;
  const auto push_record = [this, ingest = fed.ingest](std::size_t shard,
                                                       mrt::MrtRecord&& copy) {
    ShardItem item;
    item.kind = ShardItem::Kind::kRecord;
    item.record = std::move(copy);
    item.ingest = ingest;
    return push_to(shard, std::move(item));
  };

  if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record)) {
    const std::size_t prefixes =
        msg->update.announced.size() + msg->update.withdrawn.size();
    if (config_.shards == 1 || prefixes <= 1) {
      std::size_t shard = 0;
      if (!msg->update.withdrawn.empty()) {
        shard = shard_for(msg->update.withdrawn.front(), config_.shards);
      } else if (!msg->update.announced.empty()) {
        shard = shard_for(msg->update.announced.front(), config_.shards);
      }
      return push_record(shard, std::move(record));
    }
    // The message's prefixes may span shards: split it into per-shard
    // copies carrying only that shard's prefixes, so each detector
    // sees exactly its partition and nothing else.
    std::vector<std::vector<netbase::Prefix>> announced(config_.shards);
    std::vector<std::vector<netbase::Prefix>> withdrawn(config_.shards);
    for (const auto& prefix : msg->update.announced) {
      announced[shard_for(prefix, config_.shards)].push_back(prefix);
    }
    for (const auto& prefix : msg->update.withdrawn) {
      withdrawn[shard_for(prefix, config_.shards)].push_back(prefix);
    }
    bool ok = true;
    for (std::size_t i = 0; i < config_.shards; ++i) {
      if (announced[i].empty() && withdrawn[i].empty()) continue;
      mrt::Bgp4mpMessage piece = *msg;
      piece.update.announced = std::move(announced[i]);
      piece.update.withdrawn = std::move(withdrawn[i]);
      ok = push_record(i, mrt::MrtRecord{std::move(piece)}) && ok;
    }
    return ok;
  }
  if (const auto* rib = std::get_if<mrt::RibEntryRecord>(&record)) {
    return push_record(shard_for(rib->prefix, config_.shards),
                       std::move(record));
  }
  // State changes and peer index tables concern every shard: a session
  // reset clears that peer's watches wherever its prefixes live.
  bool ok = true;
  for (std::size_t i = 0; i < config_.shards; ++i) {
    ok = push_record(i, mrt::MrtRecord{record}) && ok;
  }
  return ok;
}

void LiveService::expect(const beacon::BeaconEvent& event) {
  if (!started_) throw std::logic_error("LiveService::expect before start()");
  const netbase::TimePoint deadline =
      event.withdraw_time + config_.detector.threshold;
  netbase::TimePoint cur = max_deadline_.load(std::memory_order_relaxed);
  while (deadline > cur && !max_deadline_.compare_exchange_weak(
                               cur, deadline, std::memory_order_relaxed)) {
  }
  ShardItem item;
  item.kind = ShardItem::Kind::kExpect;
  item.event = event;
  push_to(shard_for(event.prefix, config_.shards), std::move(item));
}

void LiveService::finalize(netbase::TimePoint at) {
  if (!started_) return;
  if (at == 0) at = max_deadline_.load(std::memory_order_relaxed) + 1;
  std::vector<std::uint64_t> want(config_.shards, 0);
  std::vector<bool> delivered(config_.shards, false);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    want[i] = shards_[i]->finalize_acks.load(std::memory_order_acquire) + 1;
    ShardItem item;
    item.kind = ShardItem::Kind::kAdvance;
    item.advance_to = at;
    // Through push_to so the item carries real enqueue/ingest stamps:
    // transitions fired by this advance attribute their ingest_ns to
    // the finalize call (non-records always push_blocking there).
    delivered[i] = push_to(i, std::move(item));
  }
  for (std::size_t i = 0; i < config_.shards; ++i) {
    if (!delivered[i]) continue;  // queue closed under us; worker is gone
    while (shards_[i]->finalize_acks.load(std::memory_order_acquire) < want[i]) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (config_.peerq.enabled) {
    // Converge pass: every cycle is closed now, so apply the raw
    // memoryless NoisyPeerFilter rule and flush the dwell hysteresis —
    // after a replay the live noisy set equals the batch one exactly.
    const std::lock_guard<std::mutex> lock(peer_mu_);
    (void)peers_locked(/*converge=*/true);
  }
}

void LiveService::worker_loop(std::size_t shard) {
  Shard& s = *shards_[shard];
  zombie::RealTimeZombieDetector detector(config_.detector);
  std::set<std::pair<netbase::Prefix, zombie::PeerKey>> emerged;
  std::uint64_t emerged_n = 0;
  std::uint64_t resurrected_n = 0;
  std::uint64_t died_n = 0;
  std::uint64_t epoch = 0;
  bool dirty = false;
  // Feed-ingest stamp of the item being processed right now: the
  // transition callbacks below embed it in the SSE JSON so a loopback
  // subscriber can compute end-to-end delivery latency.
  std::uint64_t cur_ingest_ns = 0;
  auto& journal = Journal::global();
  // Worker-private peer-quality accumulator (live/peerq.hpp) — same
  // ownership story as the detector, shared only via snapshots. It
  // counts the beacon cycles as the detector's windows close.
  const bool peerq_on = config_.peerq.enabled;
  PeerQAccumulator peerq;
  std::uint64_t peerq_epoch = 0;
  auto last_peerq_pub = SteadyClock::now();
  if (peerq_on) {
    detector.on_window_close(
        [&](const zombie::WindowPeers& window) { peerq.on_window_close(window); });
  }

  detector.on_alert([&](const zombie::ZombieAlert& alert) {
    // A resurrection is live-only, excluded from the batch-equivalent
    // emerge set.
    if (alert.resurrected) {
      ++resurrected_n;
    } else {
      emerged.insert({alert.prefix, alert.peer});
      ++emerged_n;
      // One batch-equivalent ZombieRoute — the stuck-probability
      // numerator. Resurrections are live-only and excluded, exactly
      // as the batch pipeline never counts them.
      if (peerq_on) peerq.on_stuck(alert);
    }
    m_transitions_.inc();
    if (journal.enabled(obs::kCatLive)) {
      JournalEvent ev;
      ev.type = alert.resurrected ? JournalEventType::kLiveZombieResurrected
                                  : JournalEventType::kLiveZombieEmerged;
      ev.time = alert.raised_at;
      ev.has_prefix = true;
      ev.prefix = alert.prefix;
      ev.has_peer = true;
      ev.peer_asn = alert.peer.asn;
      ev.peer_address = alert.peer.address;
      ev.a = alert.resurrected ? alert.raised_at : config_.detector.threshold;
      ev.b = alert.withdrawn_at;
      journal.emit<obs::kCatLive>(ev);
    }
    events_.publish(alert.resurrected ? "resurrect" : "emerge",
                    transition_json(alert.resurrected ? "resurrect" : "emerge",
                                    alert.prefix, alert.peer,
                                    alert.withdrawn_at, alert.raised_at, 0,
                                    cur_ingest_ns));
    dirty = true;
  });
  detector.on_resolution([&](const zombie::ZombieResolution& resolution) {
    ++died_n;
    m_transitions_.inc();
    if (journal.enabled(obs::kCatLive)) {
      JournalEvent ev;
      ev.type = JournalEventType::kLiveZombieDied;
      ev.time = resolution.resolved_at;
      ev.has_prefix = true;
      ev.prefix = resolution.prefix;
      ev.has_peer = true;
      ev.peer_asn = resolution.peer.asn;
      ev.peer_address = resolution.peer.address;
      ev.a = resolution.withdrawn_at;
      ev.b = resolution.stuck_for();
      journal.emit<obs::kCatLive>(ev);
    }
    events_.publish("die", transition_json("die", resolution.prefix,
                                           resolution.peer,
                                           resolution.withdrawn_at,
                                           resolution.resolved_at,
                                           resolution.stuck_for(),
                                           cur_ingest_ns));
    dirty = true;
  });

  // The published zombie and emerged vectors, rebuilt only when the
  // detector's active set or the emerged set moved since the last
  // publish; otherwise the next snapshot shares them.
  auto shared_zombies = std::make_shared<const std::vector<zombie::ZombieAlert>>();
  auto shared_pairs = std::make_shared<const std::vector<EmergedPair>>();
  std::uint64_t zombies_version = detector.active_version();

  const auto publish = [&](bool force_peerq = false) {
    const auto publish_start = SteadyClock::now();
    if (zombies_version != detector.active_version()) {
      shared_zombies = std::make_shared<const std::vector<zombie::ZombieAlert>>(
          detector.active_zombies());
      zombies_version = detector.active_version();
    }
    if (shared_pairs->size() != emerged.size()) {
      shared_pairs = std::make_shared<const std::vector<EmergedPair>>(emerged.begin(),
                                                                      emerged.end());
    }
    auto next = std::make_shared<ShardSnapshot>();
    next->epoch = ++epoch;
    next->clock = detector.stream_time();
    next->zombies = shared_zombies;
    next->emerged_pairs = shared_pairs;
    next->processed = s.processed.load(std::memory_order_relaxed);
    next->emerged = emerged_n;
    next->resurrected = resurrected_n;
    next->died = died_n;
    s.m_active.set(static_cast<std::int64_t>(shared_zombies->size()));
    // The peer-quality snapshot rides the same lock but is throttled:
    // copied out on classifier-relevant changes (new peer, stuck
    // route, cycle close, session reset) at most every 100 ms — a
    // replay closes cycles far faster than any poller reads — on the
    // forced finalize path, or at most 1 s behind, so the full-table
    // copy stays off the per-batch cost the peerq_overhead bench
    // gates.
    std::shared_ptr<const PeerQShardSnapshot> peerq_next;
    const std::uint64_t since_pub_ns =
        elapsed_ns(last_peerq_pub, publish_start);
    if (peerq_on &&
        (force_peerq ||
         (peerq.publish_due() && since_pub_ns >= 100'000'000ull) ||
         since_pub_ns >= 1'000'000'000ull)) {
      peerq_next = peerq.snapshot(detector.stream_time(), ++peerq_epoch);
      last_peerq_pub = publish_start;
    }
    {
      const std::lock_guard<std::mutex> lock(s.snap_mu);
      s.snap = std::shared_ptr<const ShardSnapshot>(std::move(next));
      if (peerq_next) s.peerq_snap = std::move(peerq_next);
    }
    const auto published_at = SteadyClock::now();
    s.last_publish_ns.store(steady_ns(published_at),
                            std::memory_order_relaxed);
    stage_publish_.record_ns(elapsed_ns(publish_start, published_at));
    dirty = false;
  };
  publish();

  const auto process = [&](ShardItem& item) {
    const auto dequeued = SteadyClock::now();
    const std::uint64_t wait_ns = elapsed_ns(item.enqueued, dequeued);
    m_lag_.observe(static_cast<double>(wait_ns) * 1e-9);
    s.lag_hist.record(wait_ns);
    stage_queue_wait_.record_ns(wait_ns);
    cur_ingest_ns = steady_ns(item.ingest);
    switch (item.kind) {
      case ShardItem::Kind::kExpect:
        detector.expect(item.event);
        break;
      case ShardItem::Kind::kAdvance:
        detector.advance(item.advance_to);
        // finalize() waits on the ack; both snapshots must be current
        // (the forced peerq publish is what makes the converge pass
        // see every closed cycle).
        publish(/*force_peerq=*/true);
        s.finalize_acks.fetch_add(1, std::memory_order_release);
        break;
      case ShardItem::Kind::kRecord: {
        if (obs::causal_enabled()) {
          // Replayed withdrawals get a trace root, so GET /causal and
          // zsroot see live-feed waves the same way they see simnet's.
          if (const auto* msg =
                  std::get_if<mrt::Bgp4mpMessage>(&item.record)) {
            for (const auto& prefix : msg->update.withdrawn) {
              const obs::TraceContext ctx =
                  obs::causal_begin_trace(obs::TraceKind::kWithdrawal);
              if (ctx.sampled()) {
                obs::causal_record({ctx.trace_id, prefix, msg->peer_asn,
                                    msg->local_asn, msg->timestamp, 0,
                                    obs::TraceKind::kWithdrawal,
                                    obs::HopDecision::kOriginated});
              }
            }
          }
        }
        detector.ingest(item.record);
        if (peerq_on) peerq.on_record(item.record);
        stage_detect_.record_ns(elapsed_ns(dequeued, SteadyClock::now()));
        s.processed.fetch_add(1, std::memory_order_relaxed);
        m_records_.inc();
        break;
      }
    }
  };

  ShardItem item;
  while (true) {
    if (!s.queue.pop_wait(item, std::chrono::milliseconds(50))) {
      if (s.queue.closed()) break;
      if (dirty) publish();
      s.m_depth.set(0);
      continue;
    }
    obs::ScopedSpan span("live.shard_batch");
    std::size_t batch = 0;
    do {
      process(item);
      ++batch;
    } while (batch < 256 && s.queue.try_pop(item));
    s.queue.notify_space();
    s.busy_ns.store(static_cast<std::uint64_t>(thread_cpu_seconds() * 1e9),
                    std::memory_order_relaxed);
    s.m_depth.set(static_cast<std::int64_t>(s.queue.approx_size()));
    // Publish after every batch, not only on transitions: pollers see
    // the stream clock and processed count move, and the epoch in
    // /live/zombies' ETag advances whenever state may have.
    publish();
  }
  if (dirty) publish();
}

std::shared_ptr<const ShardSnapshot> LiveService::snapshot(
    std::size_t shard) const {
  if (shard >= shards_.size()) return nullptr;
  const std::lock_guard<std::mutex> lock(shards_[shard]->snap_mu);
  return shards_[shard]->snap;
}

std::uint64_t LiveService::epoch() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (const auto snap = snapshot(i)) sum += snap->epoch;
  }
  return sum;
}

std::vector<zombie::ZombieAlert> LiveService::zombies() const {
  std::vector<zombie::ZombieAlert> out;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (const auto snap = snapshot(i)) {
      out.insert(out.end(), snap->zombies->begin(), snap->zombies->end());
    }
  }
  return out;
}

std::vector<std::pair<netbase::Prefix, zombie::PeerKey>>
LiveService::emerged_pairs() const {
  std::set<std::pair<netbase::Prefix, zombie::PeerKey>> merged;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (const auto snap = snapshot(i)) {
      merged.insert(snap->emerged_pairs->begin(), snap->emerged_pairs->end());
    }
  }
  return {merged.begin(), merged.end()};
}

std::vector<ShardStats> LiveService::stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    ShardStats st;
    st.id = i;
    st.queue_depth = s.queue.approx_size();
    st.queue_capacity = s.queue.capacity();
    st.submitted = s.submitted.load(std::memory_order_relaxed);
    st.processed = s.processed.load(std::memory_order_relaxed);
    st.dropped = s.dropped.load(std::memory_order_relaxed);
    st.busy_seconds =
        static_cast<double>(s.busy_ns.load(std::memory_order_relaxed)) * 1e-9;
    if (const obs::LatSnapshot lag = s.lag_hist.snapshot(); !lag.empty()) {
      st.lag_p50 = lag.quantile_ns(0.50) * 1e-9;
      st.lag_p99 = lag.quantile_ns(0.99) * 1e-9;
    }
    if (const auto snap = snapshot(i)) {
      st.epoch = snap->epoch;
      st.active_zombies = snap->zombies->size();
    }
    out.push_back(st);
  }
  return out;
}

std::uint64_t LiveService::drops() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->dropped.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t LiveService::submitted() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->submitted.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t LiveService::processed() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->processed.load(std::memory_order_relaxed);
  }
  return sum;
}

double LiveService::max_worker_busy_seconds() const {
  double max_busy = 0.0;
  for (const auto& shard : shards_) {
    max_busy = std::max(
        max_busy,
        static_cast<double>(shard->busy_ns.load(std::memory_order_relaxed)) *
            1e-9);
  }
  return max_busy;
}

obs::LatSnapshot LiveService::lag_snapshot() const {
  obs::LatSnapshot merged;
  for (const auto& shard : shards_) {
    merged.merge(shard->lag_hist.snapshot());
  }
  return merged;
}

double LiveService::lag_quantile(double q) const {
  const obs::LatSnapshot merged = lag_snapshot();
  return merged.empty() ? 0.0 : merged.quantile_ns(q) * 1e-9;
}

std::shared_ptr<const PeerTable> LiveService::peers() const {
  const std::lock_guard<std::mutex> lock(peer_mu_);
  return peers_locked(/*converge=*/false);
}

std::shared_ptr<const PeerTable> LiveService::peers_locked(bool converge) const {
  if (!config_.peerq.enabled) {
    if (!peer_table_) peer_table_ = std::make_shared<const PeerTable>();
    return peer_table_;
  }
  std::vector<std::shared_ptr<const PeerQShardSnapshot>> snaps;
  snaps.reserve(shards_.size());
  std::uint64_t fingerprint = 0;
  netbase::TimePoint clock = 0;
  for (const auto& shard : shards_) {
    std::shared_ptr<const PeerQShardSnapshot> peerq_snap;
    std::shared_ptr<const ShardSnapshot> snap;
    {
      const std::lock_guard<std::mutex> lock(shard->snap_mu);
      peerq_snap = shard->peerq_snap;
      snap = shard->snap;
    }
    if (peerq_snap) fingerprint += peerq_snap->epoch;
    // Silence ages against the freshest stream clock — the main
    // snapshot's, which publishes every batch even when the throttled
    // peerq side does not.
    if (snap) clock = std::max(clock, snap->clock);
    snaps.push_back(std::move(peerq_snap));
  }
  const bool new_data =
      !peer_table_ || peer_table_->fingerprint != fingerprint;
  if (!converge && peer_table_ && !new_data && peer_table_->clock == clock) {
    return peer_table_;
  }
  peer_table_ = peer_builder_.build(snaps, clock, new_data, converge);
  m_peer_count_.set(static_cast<std::int64_t>(peer_table_->rows.size()));
  m_peer_noisy_.set(static_cast<std::int64_t>(peer_table_->noisy_count));
  m_peer_silent_.set(static_cast<std::int64_t>(peer_table_->silent_count));
  m_peer_feeding_.set(static_cast<std::int64_t>(peer_table_->feeding_count));
  if (!m_peer_topk_ppm_.empty()) {
    // Worst offenders by stuck probability into the fixed top-K slots;
    // unused slots read 0/-1 so dashboards can tell "no data" apart.
    std::vector<const PeerRow*> ranked;
    ranked.reserve(peer_table_->rows.size());
    for (const auto& row : peer_table_->rows) ranked.push_back(&row);
    const std::size_t k = std::min(m_peer_topk_ppm_.size(), ranked.size());
    std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(k),
                      ranked.end(), [](const PeerRow* a, const PeerRow* b) {
                        return a->probability > b->probability;
                      });
    for (std::size_t r = 0; r < m_peer_topk_ppm_.size(); ++r) {
      if (r < k) {
        m_peer_topk_ppm_[r].set(
            static_cast<std::int64_t>(ranked[r]->probability * 1e6));
        m_peer_topk_asn_[r].set(static_cast<std::int64_t>(ranked[r]->peer.asn));
      } else {
        m_peer_topk_ppm_[r].set(0);
        m_peer_topk_asn_[r].set(-1);
      }
    }
  }
  return peer_table_;
}

std::string LiveService::peers_json(bool noisy_only) const {
  return peer_table_json(*peers(), epoch(), noisy_only);
}

double LiveService::newest_publish_age_seconds() const {
  std::uint64_t newest = 0;
  for (const auto& shard : shards_) {
    newest = std::max(newest,
                      shard->last_publish_ns.load(std::memory_order_relaxed));
  }
  if (newest == 0) return -1.0;  // never published (service not started)
  const std::uint64_t now = steady_ns(SteadyClock::now());
  return now > newest ? static_cast<double>(now - newest) * 1e-9 : 0.0;
}

void LiveService::attach_http(obs::HttpServer& server,
                              double stale_after_seconds,
                              std::function<std::string()> extra_degraded) {
  server.add_endpoint("/live/zombies", [this](std::string_view) {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.etag = "zslive-epoch-" + std::to_string(epoch());
    response.body = zombies_json();
    return response;
  });
  server.add_endpoint("/live/stats", [this](std::string_view) {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = stats_json();
    return response;
  });
  server.add_endpoint("/peers", [this](std::string_view) {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = peers_json(false);
    return response;
  });
  server.add_endpoint("/peers/noisy", [this](std::string_view) {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = peers_json(true);
    return response;
  });
  server.add_stream("/live/events", &events_);
  // Frame publish → copy into a subscriber's connection buffer, per
  // delivery (N subscribers record N fanout samples per frame).
  events_.set_latency_sink(
      [this](std::uint64_t ns) { stage_fanout_.record_ns(ns); });
  if (stale_after_seconds > 0.0 || extra_degraded) {
    // Readiness override (registration overrides the built-in
    // liveness /healthz): degraded once no shard has published a
    // snapshot within the threshold, or once the composed
    // extra_degraded probe (zslived: firing zstsdb alerts) reports a
    // reason. Workers publish at start, after every batch, and on the
    // 50 ms idle tick only while a transition is unpublished, so a
    // service whose feed stops goes stale: the probe reports a feed
    // gone quiet, not only a wedged worker.
    server.add_endpoint(
        "/healthz",
        [this, stale_after_seconds,
         extra_degraded = std::move(extra_degraded)](std::string_view) {
          obs::HttpResponse response;
          response.content_type = "application/json";
          const double age = newest_publish_age_seconds();
          const bool stale = stale_after_seconds > 0.0 &&
                             (age < 0.0 || age > stale_after_seconds);
          const std::string extra =
              extra_degraded ? extra_degraded() : std::string();
          if (stale || !extra.empty()) {
            std::string reason;
            if (stale) {
              reason =
                  "newest shard snapshot is " +
                  (age < 0.0 ? std::string("absent (no shard ever published)")
                             : format_seconds(age) + "s old (stale-after " +
                                   format_seconds(stale_after_seconds) + "s)");
            }
            if (!extra.empty()) {
              if (!reason.empty()) reason += "; ";
              reason += extra;
            }
            response.status = 503;
            response.body = "{\"status\":\"degraded\",\"reason\":\"" + reason +
                            "\",\"snapshot_age_seconds\":" +
                            format_seconds(age < 0.0 ? -1.0 : age) + "}\n";
          } else {
            response.body = "{\"status\":\"ok\",\"snapshot_age_seconds\":" +
                            format_seconds(age) + "}\n";
          }
          return response;
        });
  }
}

std::string LiveService::zombies_json() const {
  std::uint64_t emerged_total = 0;
  std::uint64_t resurrected_total = 0;
  std::uint64_t died_total = 0;
  netbase::TimePoint clock = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (const auto snap = snapshot(i)) {
      emerged_total += snap->emerged;
      resurrected_total += snap->resurrected;
      died_total += snap->died;
      clock = std::max(clock, snap->clock);
    }
  }
  std::string out = "{";
  append_kv(out, "epoch", std::to_string(epoch()), false);
  out += ',';
  append_kv(out, "shards", std::to_string(shards_.size()), false);
  out += ',';
  append_kv(out, "clock", std::to_string(clock), false);
  out += ',';
  append_kv(out, "emerged_total", std::to_string(emerged_total), false);
  out += ',';
  append_kv(out, "resurrected_total", std::to_string(resurrected_total), false);
  out += ',';
  append_kv(out, "died_total", std::to_string(died_total), false);
  out += ",\"zombies\":[";
  const std::vector<zombie::ZombieAlert> zs = zombies();
  // Supporting-peer provenance (peerq): for each stuck prefix, which
  // peers confirm it, and what fraction of the *non-noisy* peer
  // universe that is — the paper's argument that a zombie seen only by
  // noisy peers is probably not a zombie at all.
  std::shared_ptr<const PeerTable> table;
  std::set<zombie::PeerKey> noisy;
  std::map<netbase::Prefix, std::set<zombie::PeerKey>> support;
  if (config_.peerq.enabled) {
    table = peers();
    noisy = table->noisy_set();
    for (const auto& z : zs) support[z.prefix].insert(z.peer);
  }
  bool first = true;
  for (const auto& z : zs) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_kv(out, "prefix", z.prefix.to_string(), true);
    out += ',';
    append_kv(out, "peer_asn", std::to_string(z.peer.asn), false);
    out += ',';
    append_kv(out, "peer_address", z.peer.address.to_string(), true);
    out += ',';
    append_kv(out, "withdrawn_at", std::to_string(z.withdrawn_at), false);
    out += ',';
    append_kv(out, "raised_at", std::to_string(z.raised_at), false);
    out += ',';
    append_kv(out, "resurrected", z.resurrected ? "true" : "false", false);
    out += ',';
    append_kv(out, "stuck_path", z.stuck_path.to_string(), true);
    if (table) {
      const auto& supporters = support[z.prefix];
      std::size_t non_noisy_support = 0;
      for (const auto& peer : supporters) {
        if (!noisy.contains(peer)) ++non_noisy_support;
      }
      const std::size_t universe = table->rows.size() - noisy.size();
      const double confidence =
          universe == 0 ? 0.0
                        : static_cast<double>(non_noisy_support) /
                              static_cast<double>(universe);
      out += ',';
      append_kv(out, "support_peers", std::to_string(supporters.size()), false);
      out += ',';
      append_kv(out, "support_non_noisy", std::to_string(non_noisy_support),
                false);
      out += ',';
      append_kv(out, "confidence", format_seconds(confidence), false);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string LiveService::stats_json() const {
  std::string out = "{";
  append_kv(out, "epoch", std::to_string(epoch()), false);
  out += ',';
  append_kv(out, "submitted", std::to_string(submitted()), false);
  out += ',';
  append_kv(out, "processed", std::to_string(processed()), false);
  out += ',';
  append_kv(out, "drops_total", std::to_string(drops()), false);
  out += ',';
  append_kv(out, "sse_published", std::to_string(events_.published()), false);
  out += ',';
  // Service-wide ingest-lag rollup: every shard's histogram merged
  // bucket-wise (no sort, no per-scrape allocation proportional to
  // sample count).
  const obs::LatSnapshot lag = lag_snapshot();
  append_kv(out, "lag_p50",
            format_seconds(lag.empty() ? 0.0 : lag.quantile_ns(0.50) * 1e-9),
            false);
  out += ',';
  append_kv(out, "lag_p99",
            format_seconds(lag.empty() ? 0.0 : lag.quantile_ns(0.99) * 1e-9),
            false);
  // Per-stage pipeline latency (seconds). These are the process-wide
  // LatRegistry cells — "live.e2e" is recorded by the loopback
  // subscriber when one is running, so its absence just means nobody
  // is measuring delivery.
  out += ",\"stages\":{";
  {
    bool first_stage = true;
    for (const auto& [name, snap] : obs::LatRegistry::global().snapshot_all()) {
      if (name.rfind("live.", 0) != 0) continue;
      if (!first_stage) out += ',';
      first_stage = false;
      out += '"';
      out += name.substr(5);
      out += "\":{";
      append_kv(out, "count", std::to_string(snap.count), false);
      out += ',';
      append_kv(out, "p50", format_seconds(snap.quantile_ns(0.50) * 1e-9),
                false);
      out += ',';
      append_kv(out, "p95", format_seconds(snap.quantile_ns(0.95) * 1e-9),
                false);
      out += ',';
      append_kv(out, "p99", format_seconds(snap.quantile_ns(0.99) * 1e-9),
                false);
      out += '}';
    }
  }
  out += '}';
  out += ",\"shards\":[";
  bool first = true;
  for (const auto& st : stats()) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_kv(out, "id", std::to_string(st.id), false);
    out += ',';
    append_kv(out, "queue_depth", std::to_string(st.queue_depth), false);
    out += ',';
    append_kv(out, "queue_capacity", std::to_string(st.queue_capacity), false);
    out += ',';
    append_kv(out, "submitted", std::to_string(st.submitted), false);
    out += ',';
    append_kv(out, "processed", std::to_string(st.processed), false);
    out += ',';
    append_kv(out, "dropped", std::to_string(st.dropped), false);
    out += ',';
    append_kv(out, "epoch", std::to_string(st.epoch), false);
    out += ',';
    append_kv(out, "active_zombies", std::to_string(st.active_zombies), false);
    out += ',';
    append_kv(out, "busy_seconds", std::to_string(st.busy_seconds), false);
    out += ',';
    append_kv(out, "lag_p50", format_seconds(st.lag_p50), false);
    out += ',';
    append_kv(out, "lag_p99", format_seconds(st.lag_p99), false);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace zombiescope::live
