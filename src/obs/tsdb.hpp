// obs/tsdb.hpp — zstsdb, the embedded metrics time-series store.
//
// Everything else in src/obs/ answers "what is the value now"; this
// module answers "what was it over the last N minutes" — the question
// a paper about *long-lived* zombies keeps asking. A sampler thread
// snapshots the metrics registry (counters and gauges), the zslat
// latency registry (as interval p50/p95/p99), and any caller-supplied
// probes on a fixed cadence, and feeds every sample into multi-tier
// downsampling rings:
//
//   tier 0:  1 s step × 900 slots  (15 min at full resolution)
//   tier 1: 10 s step × 720 slots  (2 h)
//   tier 2: 60 s step × 1440 slots (24 h)
//
// Memory is fixed at construction (~49 KB per series with the default
// tiers, capped at max_series), and the rings follow the house
// concurrency discipline: one writer (the sampler), lock-free
// snapshot readers. Each slot is a (timestamp, value) pair of relaxed
// atomics published by a release store of the ring head; a reader
// copies the window, re-reads the head, and discards any slot the
// writer could have reused in between — no locks on the data path.
// Counters keep their cumulative value in the ring; rate() derivation
// happens at query time and is counter-reset-aware (a restarted
// process does not produce a huge negative spike, it produces
// value/dt like Prometheus).
//
// On top of the store sits a declarative alert-rule engine evaluated
// in the sampler tick: threshold (value, rate, or ratio-to-own-
// baseline), sustained-duration ("for 30s"), and hysteresis (separate
// clear threshold + clear duration, so a value hovering at the edge
// cannot flap). Transitions emit kAlertFiring / kAlertResolved
// journal events and maintain the zs_alerts_active gauge.
//
// HTTP surface (attach_http):
//   GET /tsdb/query?metric=&range=&step=[&agg=rate]  JSON series
//   GET /tsdb/metrics                                stored names
//   GET /alerts                                      rule states
//
// The store costs nothing until start(): zsdetect and zssim start it
// only while they serve HTTP (obs/session.hpp).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/lathist.hpp"
#include "obs/metrics.hpp"

namespace zombiescope::obs {

class HttpServer;
struct HttpResponse;

/// How a series aggregates when a tier's step covers several samples,
/// and whether rate() applies: counters keep the last cumulative value
/// per bucket and may be queried as a rate; gauges average.
enum class SeriesKind { kCounter, kGauge };

/// One downsampling tier: fixed step, fixed slot count, so span =
/// step_ms * slots and memory never grows.
struct TsdbTier {
  std::int64_t step_ms;
  std::size_t slots;
};

/// One stored or derived sample. t_ms is wall-clock Unix milliseconds
/// aligned to the owning tier's bucket start.
struct TsdbPoint {
  std::int64_t t_ms;
  double v;
};

/// Declarative alert rule, evaluated once per sampler tick.
///
///   {"queue_drops", "live.ingest_dropped_total", kRate, kGt, 0, ...}
///     -> "ingest drop rate > 0 sustained for 30 s"
///   {"e2e_p99", "latency:live.e2e:p99", kBaselineRatio, kGt, 2.0, ...}
///     -> "p99 above 2x its own trailing baseline for 60 s"
///
/// Hysteresis: a breach must hold for `for_seconds` before the rule
/// fires, and once firing it must stay at-or-below `clear_threshold`
/// for `clear_for_seconds` before it resolves. Values between
/// clear_threshold and threshold hold the current state (and reset
/// the opposing timer), so a single spike or dip cannot flap.
struct AlertRule {
  enum class Mode {
    kValue,          // compare the sampled value
    kRate,           // compare the counter-reset-aware rate
    kBaselineRatio,  // compare value / trailing-baseline-mean
  };
  /// Threshold direction. kAbove/kBelow are the descriptive spellings
  /// (a floor rule like "feeding peers dropped below 1" reads as
  /// kBelow); kGt/kLt remain for existing rules.
  enum class Op { kGt, kLt, kAbove = kGt, kBelow = kLt };

  std::string name;    // stable identifier (journal c = index, not name)
  std::string metric;  // series the rule watches
  Mode mode = Mode::kValue;
  Op op = Op::kGt;
  double threshold = 0.0;
  /// Clear side of the hysteresis band; NaN (default) means equal to
  /// `threshold` (no band).
  double clear_threshold = kUnsetThreshold;
  double for_seconds = 0.0;
  double clear_for_seconds = 0.0;
  /// kBaselineRatio only: the trailing window the baseline mean is
  /// computed over (excluding the most recent `for_seconds`, so the
  /// anomaly being judged does not drag its own baseline up).
  double baseline_window_seconds = 300.0;
  std::size_t baseline_min_samples = 30;

  static constexpr double kUnsetThreshold = -1e308;
};

enum class AlertState { kOk, kPending, kFiring };

/// Sampler configuration. `tiers` empty means Tsdb::default_tiers().
struct TsdbConfig {
  std::int64_t cadence_ms = 1000;
  std::size_t max_series = 512;
  std::vector<TsdbTier> tiers;
};

/// Point-in-time view of one rule, as served by GET /alerts.
struct AlertStatus {
  std::string name;
  std::string metric;
  AlertState state = AlertState::kOk;
  double value = 0.0;      // last evaluated comparison value
  double threshold = 0.0;  // effective threshold (baseline-scaled)
  double for_seconds = 0.0;
  std::int64_t since_ms = 0;  // when the current state was entered
};

/// The store + sampler + alert engine. One instance per process is
/// the expected shape (the tools create one next to their
/// HttpServer), but nothing is global: tests build as many as they
/// like and drive sample_once() with synthetic clocks.
class Tsdb {
 public:
  using Config = TsdbConfig;

  /// {1 s × 900, 10 s × 720, 60 s × 1440}.
  static std::vector<TsdbTier> default_tiers();

  explicit Tsdb(Config cfg = {});
  ~Tsdb();
  Tsdb(const Tsdb&) = delete;
  Tsdb& operator=(const Tsdb&) = delete;

  /// Registers a caller-supplied sample source, polled once per tick
  /// on the sampler thread. Must be called before start(). The name
  /// is used verbatim (probes are not subject to the zs_-prefix
  /// mapping applied to registry metrics).
  void add_probe(std::string name, SeriesKind kind,
                 std::function<double()> fn);

  /// Adds a rule. Must be called before start().
  void add_rule(AlertRule rule);

  /// Starts the sampler thread. Returns false if already running.
  bool start();
  /// Stops and joins the sampler. Idempotent.
  void stop();
  bool running() const { return thread_.joinable(); }

  /// One sampler tick at wall-clock time `now_ms`: snapshot every
  /// source, feed the rings, evaluate the rules. The sampler thread
  /// calls this on its cadence; tests call it directly with a
  /// synthetic clock (never concurrently with a running sampler).
  void sample_once(std::int64_t now_ms);

  /// Sorted names of every stored series.
  std::vector<std::string> metric_names() const;

  enum class QueryStatus { kOk, kNotFound, kBadRequest };
  struct QueryResult {
    QueryStatus status = QueryStatus::kOk;
    std::string error;  // set when status != kOk
    SeriesKind kind = SeriesKind::kGauge;
    std::int64_t step_ms = 0;  // effective (tier-clamped) step
    std::vector<TsdbPoint> points;
  };

  /// Core query: the trailing `range_ms` of `metric`, grouped to
  /// `step_ms` (clamped up to the chosen tier's step; 0 = tier step),
  /// optionally derived as a per-second rate (counters only). "Now"
  /// is the newest stored timestamp of the series, which makes
  /// replayed/test clocks deterministic.
  QueryResult query(std::string_view metric, std::int64_t range_ms,
                    std::int64_t step_ms, bool as_rate) const;

  /// Current state of every rule, in registration order.
  std::vector<AlertStatus> alert_statuses() const;
  std::size_t firing_count() const;
  /// Comma-joined names of firing rules ("" when healthy) — the
  /// fragment /healthz embeds when degraded.
  std::string firing_names() const;

  /// {"firing":N,"rules":[...]} as served by GET /alerts.
  std::string alerts_json() const;

  /// Registers /tsdb/query, /tsdb/metrics and /alerts on `server`.
  /// Call before server.start(). Does NOT register /healthz — the
  /// owning daemon composes degraded-health itself (see
  /// LiveService::attach_http's extra_degraded hook).
  void attach_http(HttpServer& server);

  /// HTTP handler bodies, exposed for tests that want to exercise
  /// param validation without a socket.
  HttpResponse handle_query(std::string_view target) const;
  HttpResponse handle_metrics(std::string_view target) const;
  HttpResponse handle_alerts(std::string_view target) const;

 private:
  struct Ring;
  struct Series;
  struct RuleState;

  Series* find_or_create(std::string_view name, SeriesKind kind);
  const Series* find(std::string_view name) const;
  void evaluate_rules(std::int64_t now_ms);
  /// Trailing-mean baseline for a kBaselineRatio rule; *have = false
  /// when the window holds too few points (or a zero mean).
  double baseline_for(const AlertRule& rule, std::int64_t now_ms,
                      bool* have) const;
  void sampler_loop();

  Config cfg_;
  mutable std::mutex series_mutex_;  // guards the map, not the rings
  std::map<std::string, std::unique_ptr<Series>, std::less<>> series_;

  std::vector<std::pair<std::string, LatSnapshot>> lat_prev_;

  struct Probe {
    std::string name;
    SeriesKind kind;
    std::function<double()> fn;
  };
  std::vector<Probe> probes_;

  mutable std::mutex alert_mutex_;  // guards rules_ state fields
  std::vector<AlertRule> rules_;
  std::vector<std::unique_ptr<RuleState>> rule_states_;

  // Sampler-tick scratch: name -> value sampled this tick.
  std::map<std::string, std::pair<double, SeriesKind>, std::less<>>
      tick_values_;

  Counter m_samples_;
  Counter m_fired_;
  Counter m_dropped_series_;
  Gauge m_active_;

  std::thread thread_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
};

/// "12s" / "5m" / "2h" / bare seconds -> milliseconds; 0 on parse
/// failure or non-positive input. Shared by the query handler and the
/// tools' flag parsing.
std::int64_t parse_duration_ms(std::string_view text);

}  // namespace zombiescope::obs
