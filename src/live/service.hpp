// live/service.hpp — the sharded live zombie-detection service.
//
// §6 of the paper sketches real-time detection; zslive is that sketch
// built as a service. A stream of MRT records (from a simnet tap, an
// MRT file replay, or a RIS-Live-style NDJSON feed — live/feed.hpp)
// is partitioned by prefix hash across N shard workers. Each worker
// owns a private zombie::RealTimeZombieDetector plus the
// withdrawal-phase state for its prefixes, so detection needs no
// cross-shard locks; the only sharing is downstream, where each shard
// publishes an epoch-versioned immutable snapshot that the HTTP
// serving layer reads with a single uncontended pointer copy.
//
// Transition vocabulary (what /live/events streams and the journal's
// `live` category records):
//   emerge     the detector's deadline check fired: the route was still
//              announced `threshold` after its withdrawal. raised_at is
//              exactly withdrawn_at + threshold, which makes the
//              cumulative emerge set provably equal to what batch
//              zsdetect computes from the same records
//              (tests/live_e2e_test.cpp asserts this).
//   resurrect  a zombie came back *after* the deadline had already
//              passed clean — a live-only phenomenon batch detection
//              folds into the same outbreak (ZombieAlert::resurrected).
//   die        a stuck route finally cleared (withdrawal, session
//              flush, or the next beacon announcement superseding it).
//
// Journal aux fields for the kCatLive events:
//   live_zombie_emerged      a = threshold, b = withdraw time
//   live_zombie_resurrected  a = raised at, b = withdraw time
//   live_zombie_died         a = withdraw time, b = stuck seconds
//   live_ingest_dropped      a = shard, b = total drops so far
//
// Shard routing uses a private FNV-1a over the prefix bytes, NOT
// std::hash — the shard a prefix maps to must be stable across
// processes and runs, because operators correlate per-shard stats
// between a live daemon and an offline replay of the same feed. The
// shard count is frozen at start(): resharding a running service
// would tear withdrawal-phase state mid-interval, so resize() throws
// once workers exist (restart with --shards to change it).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "beacon/schedule.hpp"
#include "live/peerq.hpp"
#include "live/queue.hpp"
#include "mrt/record.hpp"
#include "netbase/ip.hpp"
#include "netbase/time.hpp"
#include "obs/http.hpp"
#include "obs/lathist.hpp"
#include "obs/metrics.hpp"
#include "zombie/realtime.hpp"

namespace zombiescope::live {

struct LiveConfig {
  std::size_t shards = 4;
  std::size_t queue_depth = 8192;
  /// false: a full shard queue drops the record and counts it (live
  /// feeds must never slow the wire). true: submit() blocks until the
  /// shard has space (replay and bench — zero loss by construction).
  bool block_on_full = false;
  zombie::RealTimeConfig detector;
  /// Per-peer feed-quality accounting and the online noisy-peer
  /// classifier (live/peerq.hpp). Enabled by default; the
  /// peerq_overhead bench gates its hot-path cost against this switch.
  PeerQConfig peerq;
};

/// The stable prefix → shard mapping (FNV-1a over family, address
/// bytes, and length). Identical across processes, platforms, and
/// runs; exposed so tests can assert the partitioning invariants.
std::size_t shard_for(const netbase::Prefix& prefix, std::size_t shards);

/// One feed record plus the monotonic instant the feed layer first saw
/// it. Every stage latency downstream (queue wait, detect, publish,
/// SSE fanout, end-to-end delivery) is measured against this stamp, so
/// feeds should construct the FeedItem as close to the wire read (or
/// the pacing release, for replay) as possible.
struct FeedItem {
  mrt::MrtRecord record;
  std::chrono::steady_clock::time_point ingest{};
};

using EmergedPair = std::pair<netbase::Prefix, zombie::PeerKey>;

/// What a shard worker publishes after each batch: an immutable value
/// readers access via atomic shared_ptr, never a lock. `epoch`
/// increments on every publish, so pollers can cheaply detect change
/// (the /live/zombies ETag is the sum of shard epochs).
struct ShardSnapshot {
  std::uint64_t epoch = 0;
  netbase::TimePoint clock = 0;  // the detector's stream_time()
  /// The detector's active_zombies(): currently stuck routes, sorted
  /// by (prefix, peer), each flagged resurrected when raised after its
  /// deadline. Never null. Successive snapshots share one vector until
  /// a transition changes it, so a publish without transitions copies
  /// nothing.
  std::shared_ptr<const std::vector<zombie::ZombieAlert>> zombies;
  /// Cumulative (prefix, peer) pairs that ever emerged on this shard —
  /// the batch-equivalent set (resurrections excluded by definition),
  /// sorted. Never null; shared like `zombies` until a new pair emerges.
  std::shared_ptr<const std::vector<EmergedPair>> emerged_pairs;
  std::uint64_t processed = 0;
  std::uint64_t emerged = 0;
  std::uint64_t resurrected = 0;
  std::uint64_t died = 0;
};

struct ShardStats {
  std::size_t id = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::uint64_t submitted = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t epoch = 0;
  std::size_t active_zombies = 0;
  /// CPU seconds this shard's worker thread has consumed
  /// (CLOCK_THREAD_CPUTIME_ID — excludes blocked waits, so it is the
  /// shard's genuine processing cost even on a one-core box).
  double busy_seconds = 0.0;
  /// Ingest-lag (queue-wait) quantiles in seconds from this shard's
  /// mergeable latency histogram; 0 until the shard has processed
  /// anything.
  double lag_p50 = 0.0;
  double lag_p99 = 0.0;
};

class LiveService {
 public:
  explicit LiveService(LiveConfig config);
  ~LiveService();
  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;

  /// Spawns the shard workers and freezes the shard count.
  void start();
  /// Closes the queues, joins the workers. Idempotent.
  void stop();
  bool running() const { return started_ && !stopped_; }

  std::size_t shards() const { return config_.shards; }
  const LiveConfig& config() const { return config_; }

  /// Changing the shard count is only legal before start(); throws
  /// std::logic_error afterwards (see file header).
  void resize(std::size_t shards);

  // --- producers (any thread, after start()) -------------------------

  /// Routes the record to its shard(s): BGP4MP messages are split per
  /// shard when their prefixes span several, state changes and peer
  /// index tables broadcast to every shard (a session reset clears
  /// watches everywhere), RIB entries route by prefix. Returns false
  /// if any per-shard piece was dropped (never with block_on_full).
  /// Stamps the ingest instant itself — feeds that want the stamp at
  /// the wire read use the FeedItem overload.
  bool submit(const mrt::MrtRecord& record);
  /// Same routing, but the caller supplies the feed-ingest stamp (the
  /// origin of every downstream stage latency). A default-constructed
  /// stamp is replaced with now.
  bool submit(FeedItem&& item);

  /// Registers a beacon announce/withdraw pair with the detector of
  /// the shard owning the prefix. A whole schedule may be registered
  /// up front: that detector holds each event until its stream time
  /// reaches the announce_time (zombie/realtime.hpp), so a later cycle
  /// cannot supersede an earlier one before the earlier deadline fires.
  void expect(const beacon::BeaconEvent& event);

  /// Drains every shard and advances all detectors to `at` (0 = one
  /// second past the latest expected deadline), firing any outstanding
  /// alerts; blocks until every shard acknowledged. Call after a
  /// replay's EOF so the live result is complete.
  void finalize(netbase::TimePoint at = 0);

  // --- readers (any thread; cost is one brief pointer-copy lock) -----

  std::shared_ptr<const ShardSnapshot> snapshot(std::size_t shard) const;
  /// Sum of shard epochs — changes whenever any shard republished.
  std::uint64_t epoch() const;
  /// All currently-stuck routes across shards.
  std::vector<zombie::ZombieAlert> zombies() const;
  /// Cumulative batch-equivalent emerge set across shards, sorted.
  std::vector<std::pair<netbase::Prefix, zombie::PeerKey>> emerged_pairs() const;
  std::vector<ShardStats> stats() const;
  std::uint64_t drops() const;
  std::uint64_t submitted() const;
  std::uint64_t processed() const;
  /// Largest per-shard worker CPU time — the critical-path cost a
  /// throughput bench divides records by to get capacity updates/sec
  /// on machines with fewer cores than shards.
  double max_worker_busy_seconds() const;
  /// Ingest-lag (queue-wait) quantile in seconds across every shard's
  /// histogram, merged bucket-wise — no sort, no reservoir bound.
  double lag_quantile(double q) const;
  /// Merged queue-wait histogram across shards (the bench captures
  /// before/after snapshots and diffs them per config).
  obs::LatSnapshot lag_snapshot() const;

  /// The merged, classified per-peer feed-quality table (live/peerq.hpp).
  /// Merges the newest per-shard peerq snapshots, runs the online
  /// noisy-peer classifier, refreshes the zs_peer_* gauges, and caches
  /// the result until shard peerq epochs or the stream clock move.
  /// Returns an empty table when config.peerq.enabled is false.
  /// finalize() runs a converge pass first, so after a replay the
  /// noisy set equals batch NoisyPeerFilter's exactly.
  std::shared_ptr<const PeerTable> peers() const;
  /// JSON body of GET /peers (noisy_only: GET /peers/noisy).
  std::string peers_json(bool noisy_only = false) const;

  // --- serving --------------------------------------------------------

  /// The /live/events SSE hub (exposed for tests; publish() is done by
  /// the shard workers).
  obs::SseChannel& events() { return events_; }

  /// Registers /live/zombies, /live/stats, and /live/events on the
  /// server, and installs the SSE fanout latency sink. Must be called
  /// before server.start(); the service must outlive the server.
  /// When `stale_after_seconds` > 0 the built-in /healthz is replaced
  /// with a readiness probe: if the newest shard snapshot is older
  /// than the threshold the probe answers 503 {"status":"degraded"}
  /// with a JSON reason, so a load balancer can eject a wedged
  /// instance (satellite of ISSUE 7; zslived's --stale-after).
  /// `extra_degraded` (optional) composes additional degraded states
  /// into the same probe: polled per request, it returns a reason
  /// string, empty meaning healthy — zslived wires the zstsdb alert
  /// engine in here so firing alerts also flip /healthz to 503.
  void attach_http(obs::HttpServer& server, double stale_after_seconds = 0.0,
                   std::function<std::string()> extra_degraded = {});

  /// Seconds since the most recent shard snapshot publish (any shard).
  /// Large values mean every worker is wedged or the service stopped.
  double newest_publish_age_seconds() const;

  /// JSON bodies of the two snapshot endpoints (exposed so the daemon's
  /// --print-zombies exit dump and the tests share the serializer).
  std::string zombies_json() const;
  std::string stats_json() const;

 private:
  struct ShardItem {
    enum class Kind : std::uint8_t { kRecord, kExpect, kAdvance };
    Kind kind = Kind::kRecord;
    mrt::MrtRecord record;
    beacon::BeaconEvent event;
    netbase::TimePoint advance_to = 0;
    /// Feed-ingest stamp (stage-latency origin; push_to backfills it
    /// with the enqueue instant when the producer didn't set one).
    std::chrono::steady_clock::time_point ingest{};
    std::chrono::steady_clock::time_point enqueued{};
  };

  /// One pipeline stage's latency surface: the mergeable ns histogram
  /// in LatRegistry (drives /latency, /live/stats "stages", and the
  /// BENCH latency section) plus a registry seconds histogram whose
  /// exporter already emits p50/p95/p99 _quantile gauges
  /// (zs_live_stage_seconds_<stage>). Recording is two lock-free
  /// paths.
  struct StageLat {
    obs::LatHist* hist = nullptr;
    obs::Histogram seconds;
    void record_ns(std::uint64_t ns) noexcept {
      if (hist != nullptr) hist->record(ns);
      seconds.observe(static_cast<double>(ns) * 1e-9);
    }
  };

  struct Shard {
    explicit Shard(std::size_t depth) : queue(depth) {}
    BoundedMpscQueue<ShardItem> queue;
    std::thread worker;
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> finalize_acks{0};
    std::atomic<std::uint64_t> busy_ns{0};
    /// Published snapshot. A plain mutex around a shared_ptr swap, not
    /// std::atomic<shared_ptr>: libstdc++'s _Sp_atomic guards its
    /// pointer with a lock bit TSan cannot model, so every load/store
    /// pair reports a false race. Readers hold the lock only for the
    /// pointer copy; the snapshot itself is immutable.
    mutable std::mutex snap_mu;
    std::shared_ptr<const ShardSnapshot> snap;
    /// Queue-wait (ingest-lag) histogram: lock-free record from the
    /// worker, snapshot-merge reads from any scrape thread — replaces
    /// the old atomic-double ring whose every /live/stats scrape paid
    /// an O(n log n) sort.
    obs::LatHist lag_hist;
    /// steady_clock ns of the last snapshot publish (0 = never);
    /// drives the /healthz staleness probe.
    std::atomic<std::uint64_t> last_publish_ns{0};
    /// The peer-quality side of the publication, same locking story as
    /// `snap`. Published on classifier-relevant changes or at most 1 s
    /// behind, not on every batch — peers() tolerates the staleness,
    /// the hot path keeps the copy off its per-batch cost.
    std::shared_ptr<const PeerQShardSnapshot> peerq_snap;
    obs::Gauge m_depth;
    obs::Gauge m_active;
  };

  bool push_to(std::size_t shard, ShardItem&& item);
  void worker_loop(std::size_t shard);
  /// peers() body; peer_mu_ must be held. `converge` applies the raw
  /// batch rule (finalize's equivalence pass).
  std::shared_ptr<const PeerTable> peers_locked(bool converge) const;

  LiveConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<netbase::TimePoint> max_deadline_{0};
  obs::SseChannel events_;
  obs::Counter m_records_;
  obs::Counter m_drops_;
  obs::Counter m_transitions_;
  obs::Histogram m_lag_;
  // Per-stage pipeline latency (see DESIGN.md §7 zslat): feed ingest →
  // enqueue, queue wait, detector processing, snapshot publish, SSE
  // fanout copy-out. End-to-end ("live.e2e") is recorded by the
  // loopback subscriber (live/loopback.hpp), not here.
  StageLat stage_ingest_enqueue_;
  StageLat stage_queue_wait_;
  StageLat stage_detect_;
  StageLat stage_publish_;
  StageLat stage_fanout_;
  // Peer-table merge + classifier state (live/peerq.hpp). One mutex
  // serializes the builder (it owns the dwell/silence hysteresis) and
  // the cached table readers share.
  mutable std::mutex peer_mu_;
  mutable PeerTableBuilder peer_builder_;
  mutable std::shared_ptr<const PeerTable> peer_table_;
  // Bounded-cardinality peer gauges (auto-swept into the TSDB as
  // peer.*): aggregates plus top-K offender slots.
  mutable obs::Gauge m_peer_count_;
  mutable obs::Gauge m_peer_noisy_;
  mutable obs::Gauge m_peer_silent_;
  mutable obs::Gauge m_peer_feeding_;
  mutable std::vector<obs::Gauge> m_peer_topk_ppm_;
  mutable std::vector<obs::Gauge> m_peer_topk_asn_;
};

}  // namespace zombiescope::live
