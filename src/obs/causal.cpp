#include "obs/causal.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "netbase/mpsc_ring.hpp"
#include "obs/metrics.hpp"

namespace zombiescope::obs {

namespace {

struct KindName {
  TraceKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {TraceKind::kAnnouncement, "announcement"},
    {TraceKind::kWithdrawal, "withdrawal"},
};

struct DecisionName {
  HopDecision decision;
  std::string_view name;
};

constexpr DecisionName kDecisionNames[] = {
    {HopDecision::kOriginated, "originated"},
    {HopDecision::kForwarded, "forwarded"},
    {HopDecision::kSuppressedByFault, "suppressed_by_fault"},
    {HopDecision::kStalled, "stalled"},
    {HopDecision::kPolicyFiltered, "policy_filtered"},
    {HopDecision::kImplicitlyWithdrawn, "implicitly_withdrawn"},
};

}  // namespace

std::string_view to_string(TraceKind kind) {
  for (const auto& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

std::string_view to_string(HopDecision decision) {
  for (const auto& entry : kDecisionNames) {
    if (entry.decision == decision) return entry.name;
  }
  return "unknown";
}

std::optional<HopDecision> parse_hop_decision(std::string_view name) {
  for (const auto& entry : kDecisionNames) {
    if (entry.name == name) return entry.decision;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Journal codec.

JournalEvent to_journal_event(const HopRecord& record) {
  JournalEvent ev;
  ev.type = JournalEventType::kPropagationHop;
  ev.time = record.time;
  ev.has_prefix = true;
  ev.prefix = record.prefix;
  ev.a = static_cast<std::int64_t>(record.trace_id);
  ev.b = (static_cast<std::int64_t>(record.from_asn) << 32) |
         static_cast<std::int64_t>(record.to_asn);
  ev.c = (static_cast<std::int64_t>(record.hop) << 16) |
         (static_cast<std::int64_t>(record.kind) << 8) |
         static_cast<std::int64_t>(record.decision);
  return ev;
}

std::optional<HopRecord> hop_from_event(const JournalEvent& event) {
  if (event.type != JournalEventType::kPropagationHop || !event.has_prefix)
    return std::nullopt;
  const auto kind = static_cast<std::uint8_t>((event.c >> 8) & 0xff);
  const auto decision = static_cast<std::uint8_t>(event.c & 0xff);
  if (kind > static_cast<std::uint8_t>(TraceKind::kWithdrawal)) return std::nullopt;
  if (decision > static_cast<std::uint8_t>(HopDecision::kImplicitlyWithdrawn))
    return std::nullopt;
  HopRecord record;
  record.trace_id = static_cast<std::uint64_t>(event.a);
  record.prefix = event.prefix;
  record.from_asn = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(event.b) >> 32) & 0xffffffffu);
  record.to_asn =
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(event.b) & 0xffffffffu);
  record.time = event.time;
  record.hop = static_cast<std::uint16_t>((event.c >> 16) & 0xffff);
  record.kind = static_cast<TraceKind>(kind);
  record.decision = static_cast<HopDecision>(decision);
  return record;
}

// ---------------------------------------------------------------------------
// Tree rendering.

namespace {

void render_subtree(std::string& out,
                    const std::multimap<std::uint32_t, const HopRecord*>& children,
                    std::uint32_t asn, int depth, std::vector<std::uint32_t>& visited) {
  if (std::find(visited.begin(), visited.end(), asn) != visited.end()) return;
  visited.push_back(asn);
  auto [lo, hi] = children.equal_range(asn);
  for (auto it = lo; it != hi; ++it) {
    const HopRecord& hop = *it->second;
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    out += "AS" + std::to_string(hop.to_asn);
    out += ' ';
    out += to_string(hop.kind);
    out += ' ';
    out += to_string(hop.decision);
    out += " t=" + std::to_string(hop.time);
    out += " hop=" + std::to_string(hop.hop);
    out += '\n';
    if (hop.decision == HopDecision::kOriginated ||
        hop.decision == HopDecision::kForwarded ||
        hop.decision == HopDecision::kImplicitlyWithdrawn)
      render_subtree(out, children, hop.to_asn, depth + 1, visited);
  }
}

}  // namespace

std::string render_propagation_tree(const netbase::Prefix& prefix,
                                    const std::vector<HopRecord>& records,
                                    std::size_t max_traces) {
  // Bundle this prefix's records per trace, remembering each trace's
  // latest timestamp so the most recent waves render first.
  std::map<std::uint64_t, std::vector<const HopRecord*>> traces;
  std::map<std::uint64_t, netbase::TimePoint> latest;
  for (const HopRecord& record : records) {
    if (!(record.prefix == prefix)) continue;
    traces[record.trace_id].push_back(&record);
    latest[record.trace_id] = std::max(latest[record.trace_id], record.time);
  }

  std::vector<std::uint64_t> order;
  order.reserve(traces.size());
  for (const auto& [id, hops] : traces) order.push_back(id);
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    if (latest[a] != latest[b]) return latest[a] > latest[b];
    return a > b;
  });
  if (order.size() > max_traces) order.resize(max_traces);

  std::string out = "prefix " + prefix.to_string() + ": " +
                    std::to_string(traces.size()) + " trace(s)\n";
  for (std::uint64_t id : order) {
    auto hops = traces[id];
    std::sort(hops.begin(), hops.end(), [](const HopRecord* a, const HopRecord* b) {
      if (a->hop != b->hop) return a->hop < b->hop;
      if (a->time != b->time) return a->time < b->time;
      return a->to_asn < b->to_asn;
    });
    std::multimap<std::uint32_t, const HopRecord*> children;
    const HopRecord* root = nullptr;
    for (const HopRecord* hop : hops) {
      if (hop->decision == HopDecision::kOriginated && root == nullptr) root = hop;
      children.emplace(hop->from_asn, hop);
    }
    out += "trace " + std::to_string(id);
    if (root != nullptr) {
      out += " (";
      out += to_string(root->kind);
      out += " rooted at AS" + std::to_string(root->to_asn) + ")";
    }
    out += '\n';
    std::vector<std::uint32_t> visited;
    // Roots report from_asn 0; orphaned subtrees (their root record
    // lost to ring overflow) are rendered from their earliest sender.
    if (children.contains(0)) {
      render_subtree(out, children, 0, 1, visited);
    } else if (!hops.empty()) {
      render_subtree(out, children, hops.front()->from_asn, 1, visited);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The tracer: MPSC hop ring + per-prefix store.

namespace {

// SplitMix64: the sampling decision is a stateless hash of the trace
// id, so concurrent begin_trace calls need no shared RNG state and a
// given (seed, id) always draws the same verdict.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

struct CausalTracer::Impl {
  std::atomic<bool> enabled{true};
  std::atomic<double> announce_rate{kDefaultAnnounceSampleRate};
  std::atomic<std::uint64_t> sample_seed{0x5eedba5e5eedba5eull};
  std::atomic<std::uint64_t> next_id{0};
  std::atomic<std::uint64_t> traces_started{0};
  std::atomic<std::uint64_t> recorded{0};
  std::atomic<std::uint64_t> dropped{0};

  netbase::MpscRing<HopRecord> ring{kRingCapacity};  // drained under consumer_mutex

  std::mutex consumer_mutex;
  std::unordered_map<netbase::Prefix, std::deque<HopRecord>> store;

  Counter m_recorded;
  Counter m_dropped;
  Counter m_traces;

  Impl() {
    m_recorded = Registry::global().counter("zs_causal_hops_recorded_total");
    m_dropped = Registry::global().counter("zs_causal_hops_dropped_total");
    m_traces = Registry::global().counter("zs_causal_traces_started_total");
  }
};

CausalTracer::CausalTracer() : impl_(new Impl) {}

CausalTracer& CausalTracer::global() {
  static CausalTracer tracer;
  return tracer;
}

bool CausalTracer::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void CausalTracer::set_enabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

double CausalTracer::announce_sample_rate() const {
  return impl_->announce_rate.load(std::memory_order_relaxed);
}

void CausalTracer::set_announce_sample_rate(double rate) {
  impl_->announce_rate.store(std::clamp(rate, 0.0, 1.0),
                             std::memory_order_relaxed);
}

void CausalTracer::set_sample_seed(std::uint64_t seed) {
  impl_->sample_seed.store(seed, std::memory_order_relaxed);
}

TraceContext CausalTracer::begin_trace(TraceKind kind) {
  if (!enabled()) return {};
  const std::uint64_t id =
      impl_->next_id.fetch_add(1, std::memory_order_relaxed) + 1;
  if (kind == TraceKind::kAnnouncement) {
    const double rate = announce_sample_rate();
    if (!(rate > 0.0)) return {};
    if (rate < 1.0) {
      const std::uint64_t h =
          splitmix64(id ^ impl_->sample_seed.load(std::memory_order_relaxed));
      // Top 53 bits -> uniform double in [0, 1).
      if (static_cast<double>(h >> 11) * 0x1.0p-53 >= rate) return {};
    }
  }
  impl_->traces_started.fetch_add(1, std::memory_order_relaxed);
  impl_->m_traces.inc();
  return {id, 0};
}

void CausalTracer::record(const HopRecord& record) {
  if (record.trace_id == 0 || !enabled()) return;
  if (impl_->ring.try_push(record)) {
    impl_->recorded.fetch_add(1, std::memory_order_relaxed);
    impl_->m_recorded.inc();
  } else {
    impl_->dropped.fetch_add(1, std::memory_order_relaxed);
    impl_->m_dropped.inc();
  }
  Journal& journal = Journal::global();
  if (journal.enabled(kCatPropagation))
    journal.emit<kCatPropagation>(to_journal_event(record));
}

std::size_t CausalTracer::drain() {
  std::lock_guard<std::mutex> lock(impl_->consumer_mutex);
  std::size_t moved = 0;
  HopRecord record;
  while (impl_->ring.try_pop(record)) {
    ++moved;
    if (!impl_->store.contains(record.prefix) &&
        impl_->store.size() >= kMaxPrefixes)
      continue;  // bounded: ancient prefixes win over new ones
    auto& bucket = impl_->store[record.prefix];
    bucket.push_back(record);
    if (bucket.size() > kMaxRecordsPerPrefix) bucket.pop_front();
  }
  return moved;
}

std::vector<HopRecord> CausalTracer::records_for(const netbase::Prefix& prefix) {
  drain();
  std::lock_guard<std::mutex> lock(impl_->consumer_mutex);
  auto it = impl_->store.find(prefix);
  if (it == impl_->store.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::vector<netbase::Prefix> CausalTracer::traced_prefixes() {
  drain();
  std::lock_guard<std::mutex> lock(impl_->consumer_mutex);
  std::vector<netbase::Prefix> out;
  out.reserve(impl_->store.size());
  for (const auto& [prefix, bucket] : impl_->store) {
    (void)bucket;
    out.push_back(prefix);
  }
  return out;
}

std::uint64_t CausalTracer::traces_started() const {
  return impl_->traces_started.load(std::memory_order_relaxed);
}

std::uint64_t CausalTracer::recorded() const {
  return impl_->recorded.load(std::memory_order_relaxed);
}

std::uint64_t CausalTracer::dropped() const {
  return impl_->dropped.load(std::memory_order_relaxed);
}

void CausalTracer::reset() {
  std::lock_guard<std::mutex> lock(impl_->consumer_mutex);
  HopRecord discard;
  while (impl_->ring.try_pop(discard)) {
  }
  impl_->store.clear();
  impl_->next_id.store(0, std::memory_order_relaxed);
  impl_->traces_started.store(0, std::memory_order_relaxed);
  impl_->recorded.store(0, std::memory_order_relaxed);
  impl_->dropped.store(0, std::memory_order_relaxed);
}

TraceContext causal_begin_trace(TraceKind kind) {
  return CausalTracer::global().begin_trace(kind);
}

void causal_record(const HopRecord& record) {
  CausalTracer::global().record(record);
}

bool causal_enabled() { return CausalTracer::global().enabled(); }

void causal_set_enabled(bool on) { CausalTracer::global().set_enabled(on); }

void causal_set_announce_sample_rate(double rate) {
  CausalTracer::global().set_announce_sample_rate(rate);
}

}  // namespace zombiescope::obs
