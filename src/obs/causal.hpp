// obs/causal.hpp — causal propagation tracing.
//
// The simulator knows exactly which injected fault killed a
// withdrawal, but nothing records *where along the path* each update
// died — so the zombie root-cause heuristic (zombie/rootcause.cpp)
// could never be scored against ground truth. This module gives every
// BGP update wave a distributed-tracing-style identity: a TraceContext
// (64-bit trace id + hop counter) is stamped on the message at its
// origination in simnet/simulation.cpp and carried on every derived
// delivery, and each link traversal deposits one HopRecord — who sent
// it, who received it (or was meant to), when, and what happened:
//
//   originated            trace root (beacon origination, session
//                         flush, eviction, re-validation)
//   forwarded             delivered, applied, and propagated onward
//   suppressed_by_fault   eaten by a WithdrawalSuppression at send
//   stalled               dropped by a ReceiveStall at receive
//   policy_filtered       rejected by import policy (loop / ROV)
//   implicitly_withdrawn  delivered but the wave ended here: a
//                         withdrawal absorbed by an alternate
//                         (possibly stale) route, or an announcement
//                         that lost the decision process
//
// Sampling policy: withdrawals are always traced (every withdrawal in
// our scenarios is a beacon prefix — they are the zombie-relevant
// messages); announcements are sampled probabilistically at
// `--causal-sample-rate` (the decision is a stateless hash of the
// trace id, so runs are deterministic and sampling never perturbs the
// simulation's own RNG).
//
// Records flow through a bounded lock-free MPSC ring
// (netbase/mpsc_ring.hpp, as the journal's events do) into a per-prefix store served by
// GET /causal?prefix=…, and are mirrored into the journal under the
// `propagation` category so tools/zsroot can rebuild propagation
// trees offline. causal_set_enabled(false) turns tracing off at run
// time: begin_trace then hands out unsampled contexts and every hook
// costs one branch. The record codec and tree renderer below are pure
// functions zsroot uses to read journals.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "netbase/ip.hpp"
#include "netbase/time.hpp"
#include "obs/journal.hpp"

namespace zombiescope::obs {

/// What kind of update traversed the link. A withdrawal-rooted trace
/// can contain announcement hops: when a withdrawn best route is
/// replaced by an alternate, the wave continues as announcements.
enum class TraceKind : std::uint8_t {
  kAnnouncement = 0,
  kWithdrawal = 1,
};

/// The fate of one update on one link (see file header).
enum class HopDecision : std::uint8_t {
  kOriginated = 0,
  kForwarded = 1,
  kSuppressedByFault = 2,
  kStalled = 3,
  kPolicyFiltered = 4,
  kImplicitlyWithdrawn = 5,
};

std::string_view to_string(TraceKind kind);
std::string_view to_string(HopDecision decision);
std::optional<HopDecision> parse_hop_decision(std::string_view name);

/// Carried on every in-flight delivery. trace_id 0 = unsampled: every
/// hook short-circuits on it, so an unsampled wave costs one branch
/// per hop and records nothing. Packed into one word because simnet
/// stamps this on every queued event — at 2^48 trace ids and 2^16
/// hops, neither bound is reachable in practice.
struct TraceContext {
  std::uint64_t trace_id : 48 = 0;
  std::uint64_t hop : 16 = 0;

  bool sampled() const { return trace_id != 0; }
  /// The context stamped on deliveries derived from this one (one
  /// link further from the trace root).
  TraceContext child() const {
    return {trace_id, static_cast<std::uint16_t>(hop + 1)};
  }
};
static_assert(sizeof(TraceContext) == 8,
              "TraceContext rides every simnet event; keep it one word");

/// One link traversal. `hop` is the link's distance from the trace
/// root (the originated record is hop 0 with from_asn 0). Trivially
/// copyable: the ring moves raw bytes.
struct HopRecord {
  std::uint64_t trace_id = 0;
  netbase::Prefix prefix;
  std::uint32_t from_asn = 0;
  std::uint32_t to_asn = 0;
  netbase::TimePoint time = 0;
  std::uint16_t hop = 0;
  TraceKind kind = TraceKind::kAnnouncement;
  HopDecision decision = HopDecision::kForwarded;

  friend bool operator==(const HopRecord&, const HopRecord&) = default;
};
static_assert(std::is_trivially_copyable_v<HopRecord>,
              "the causal ring copies records as raw memory");

// --- journal codec ---------------------------------------------------
//
// A HopRecord rides the generic JournalEvent as kPropagationHop:
//   a = trace id
//   b = from_asn << 32 | to_asn
//   c = hop << 16 | kind << 8 | decision
// These two helpers are the only place the packing lives; zsroot and
// the HTTP endpoint go through them, never the bit layout.

JournalEvent to_journal_event(const HopRecord& record);
/// nullopt if the event is not a kPropagationHop or carries
/// out-of-range kind/decision values.
std::optional<HopRecord> hop_from_event(const JournalEvent& event);

/// ASCII rendering of the propagation trees of one prefix: one tree
/// per trace (most recent first, at most `max_traces`), children
/// indented under the AS that sent to them. Pure function — works on
/// live-drained records and journal-recovered ones alike.
std::string render_propagation_tree(const netbase::Prefix& prefix,
                                    const std::vector<HopRecord>& records,
                                    std::size_t max_traces = 8);

/// The process-wide tracer. Enabled by default (tracing an unsampled
/// wave is one branch per hop; withdrawal volume is tiny next to
/// announcements); set_enabled(false) turns even that off.
class CausalTracer {
 public:
  // 4096 slots x 64 B = 256 KiB, allocated when the tracer is first
  // touched. Withdrawal waves arrive in bursts of at most a few
  // thousand hops between drains; a deeper ring only buys resident
  // memory (the bench RSS gate watches this).
  static constexpr std::size_t kRingCapacity = 1u << 12;
  static constexpr std::size_t kMaxRecordsPerPrefix = 8192;
  static constexpr std::size_t kMaxPrefixes = 1024;
  static constexpr double kDefaultAnnounceSampleRate = 0.01;

  CausalTracer();
  CausalTracer(const CausalTracer&) = delete;
  CausalTracer& operator=(const CausalTracer&) = delete;

  static CausalTracer& global();

  bool enabled() const;
  void set_enabled(bool on);
  double announce_sample_rate() const;
  /// Clamped to [0, 1]. Withdrawals ignore the rate: always sampled.
  void set_announce_sample_rate(double rate);
  /// Seed of the stateless sampling hash (default fixed, so identical
  /// runs sample identical waves).
  void set_sample_seed(std::uint64_t seed);

  /// Allocates a trace id and applies the sampling policy; returns an
  /// unsampled context when tracing is off or the wave lost the draw.
  TraceContext begin_trace(TraceKind kind);

  /// Enqueues one hop record (lock-free, drops + counts when the ring
  /// is full) and mirrors it into the journal's `propagation` category
  /// when that is enabled. Unsampled records are ignored.
  void record(const HopRecord& record);

  /// Moves ring contents into the per-prefix store (consumer side,
  /// mutex-guarded). Returns records moved.
  std::size_t drain();

  /// Stored records of one prefix, oldest first (drains first so the
  /// answer is current).
  std::vector<HopRecord> records_for(const netbase::Prefix& prefix);
  /// Prefixes with stored records (drains first).
  std::vector<netbase::Prefix> traced_prefixes();

  std::uint64_t traces_started() const;
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// Drops buffered + stored records and zeroes counters; keeps the
  /// enabled flag, rate, and seed. Restarts trace ids at 1, so runs
  /// that reset first are reproducible record-for-record.
  void reset();

 private:
  struct Impl;
  Impl* impl_;  // leaked singleton-style: tracer outlives static dtors
};

// Free-function hooks: the simnet call sites use these, never the
// class directly.
TraceContext causal_begin_trace(TraceKind kind);
void causal_record(const HopRecord& record);
bool causal_enabled();
void causal_set_enabled(bool on);
void causal_set_announce_sample_rate(double rate);

}  // namespace zombiescope::obs
