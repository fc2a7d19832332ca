#include "obs/journal.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "netbase/json.hpp"

namespace zombiescope::obs {

namespace {

struct CategoryName {
  std::uint32_t bit;
  std::string_view name;
};

constexpr CategoryName kCategoryNames[] = {
    {kCatRun, "run"},           {kCatState, "state"},
    {kCatDetector, "detector"}, {kCatNoise, "noise"},
    {kCatLifespan, "lifespan"}, {kCatCollector, "collector"},
    {kCatFault, "fault"},       {kCatPropagation, "propagation"},
    {kCatLive, "live"},     {kCatAlert, "alert"},
    {kCatPeer, "peer"},     {kCatSession, "session"},
};

}  // namespace

std::string_view category_name(std::uint32_t category) {
  for (const auto& entry : kCategoryNames) {
    if (entry.bit == category) return entry.name;
  }
  return {};
}

std::optional<std::uint32_t> parse_categories(std::string_view text) {
  std::uint32_t mask = 0;
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view token = text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    if (token.empty()) continue;
    if (token == "all") {
      mask |= kCatAll;
      continue;
    }
    bool found = false;
    for (const auto& entry : kCategoryNames) {
      if (entry.name == token) {
        mask |= entry.bit;
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  return mask;
}

namespace {

struct EventTypeName {
  JournalEventType type;
  std::string_view name;
  std::uint32_t category;
};

constexpr EventTypeName kEventTypeNames[] = {
    {JournalEventType::kRunMeta, "run_meta", kCatRun},
    {JournalEventType::kAnnounceSeen, "announce_seen", kCatState},
    {JournalEventType::kWithdrawSeen, "withdraw_seen", kCatState},
    {JournalEventType::kSessionFlush, "session_flush", kCatState},
    {JournalEventType::kThresholdCrossed, "threshold_crossed", kCatDetector},
    {JournalEventType::kZombieDeclared, "zombie_declared", kCatDetector},
    {JournalEventType::kZombieCleared, "zombie_cleared", kCatDetector},
    {JournalEventType::kDuplicateSuppressed, "duplicate_suppressed", kCatDetector},
    {JournalEventType::kNoisyPeerExcluded, "noisy_peer_excluded", kCatNoise},
    {JournalEventType::kWithdrawalLost, "withdrawal_lost", kCatNoise},
    {JournalEventType::kWithdrawalDelayed, "withdrawal_delayed", kCatNoise},
    {JournalEventType::kPhantomReannounce, "phantom_reannounce", kCatNoise},
    {JournalEventType::kResurrectionDetected, "resurrection_detected", kCatLifespan},
    {JournalEventType::kLifespanClosed, "lifespan_closed", kCatLifespan},
    {JournalEventType::kCollectorSessionDown, "collector_session_down", kCatCollector},
    {JournalEventType::kCollectorSessionUp, "collector_session_up", kCatCollector},
    {JournalEventType::kFaultWithdrawalSuppressed, "fault_withdrawal_suppressed", kCatFault},
    {JournalEventType::kFaultReceiveStall, "fault_receive_stall", kCatFault},
    {JournalEventType::kSimSessionDown, "sim_session_down", kCatFault},
    {JournalEventType::kSimSessionUp, "sim_session_up", kCatFault},
    {JournalEventType::kPrefixEvicted, "prefix_evicted", kCatFault},
    {JournalEventType::kPropagationHop, "propagation_hop", kCatPropagation},
    {JournalEventType::kLiveZombieEmerged, "live_zombie_emerged", kCatLive},
    {JournalEventType::kLiveZombieResurrected, "live_zombie_resurrected", kCatLive},
    {JournalEventType::kLiveZombieDied, "live_zombie_died", kCatLive},
    {JournalEventType::kLiveIngestDropped, "live_ingest_dropped", kCatLive},
    {JournalEventType::kLiveClientEvicted, "live_client_evicted", kCatLive},
    {JournalEventType::kAlertFiring, "alert_firing", kCatAlert},
    {JournalEventType::kAlertResolved, "alert_resolved", kCatAlert},
    {JournalEventType::kPeerNoisyEnter, "peer_noisy_enter", kCatPeer},
    {JournalEventType::kPeerNoisyExit, "peer_noisy_exit", kCatPeer},
    {JournalEventType::kPeerSilent, "peer_silent", kCatPeer},
    {JournalEventType::kWireSessionState, "wire_session_state", kCatSession},
    {JournalEventType::kWireNotifySent, "wire_notify_sent", kCatSession},
    {JournalEventType::kWireNotifyReceived, "wire_notify_received", kCatSession},
    {JournalEventType::kWireGrRetained, "wire_gr_retained", kCatSession},
    {JournalEventType::kWireGrFlushed, "wire_gr_flushed", kCatSession},
    {JournalEventType::kWireCollision, "wire_collision", kCatSession},
};

}  // namespace

std::string_view to_string(JournalEventType type) {
  for (const auto& entry : kEventTypeNames) {
    if (entry.type == type) return entry.name;
  }
  return "unknown";
}

std::optional<JournalEventType> parse_event_type(std::string_view name) {
  for (const auto& entry : kEventTypeNames) {
    if (entry.name == name) return entry.type;
  }
  return std::nullopt;
}

std::uint32_t category_of(JournalEventType type) {
  for (const auto& entry : kEventTypeNames) {
    if (entry.type == type) return entry.category;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// NDJSON codec.

std::string to_ndjson(const JournalEvent& event) {
  std::string out;
  out.reserve(128);
  out += "{\"ev\":\"";
  out += to_string(event.type);
  out += "\",\"t\":";
  out += std::to_string(event.time);
  if (event.has_prefix) {
    out += ",\"prefix\":\"";
    out += event.prefix.to_string();
    out += '"';
  }
  if (event.has_peer) {
    out += ",\"peer_asn\":";
    out += std::to_string(event.peer_asn);
    out += ",\"peer\":\"";
    out += event.peer_address.to_string();
    out += '"';
  }
  out += ",\"a\":";
  out += std::to_string(event.a);
  out += ",\"b\":";
  out += std::to_string(event.b);
  out += ",\"c\":";
  out += std::to_string(event.c);
  out += '}';
  return out;
}

std::optional<JournalEvent> parse_ndjson(std::string_view line) {
  const std::optional<netbase::JsonValue> doc = netbase::parse_json(line);
  if (!doc.has_value()) return std::nullopt;
  const netbase::JsonValue* name = doc->find("ev");
  if (name == nullptr || !name->is_string()) return std::nullopt;
  const auto type = parse_event_type(name->str);
  if (!type.has_value()) return std::nullopt;
  const auto integer = [&doc](std::string_view key) -> std::optional<std::int64_t> {
    const netbase::JsonValue* v = doc->find(key);
    if (v == nullptr) return std::nullopt;
    return v->integer();
  };

  JournalEvent event;
  event.type = *type;
  const auto time = integer("t");
  if (!time.has_value()) return std::nullopt;
  event.time = *time;

  if (const netbase::JsonValue* prefix = doc->find("prefix")) {
    if (!prefix->is_string()) return std::nullopt;
    const auto parsed = netbase::Prefix::try_parse(prefix->str);
    if (!parsed.has_value()) return std::nullopt;
    event.has_prefix = true;
    event.prefix = *parsed;
  }
  if (const netbase::JsonValue* peer = doc->find("peer")) {
    if (!peer->is_string()) return std::nullopt;
    const auto parsed = netbase::IpAddress::try_parse(peer->str);
    if (!parsed.has_value()) return std::nullopt;
    event.has_peer = true;
    event.peer_address = *parsed;
    const auto asn = integer("peer_asn");
    if (!asn.has_value() || *asn < 0) return std::nullopt;
    event.peer_asn = static_cast<std::uint32_t>(*asn);
  }
  event.a = integer("a").value_or(0);
  event.b = integer("b").value_or(0);
  event.c = integer("c").value_or(0);
  return event;
}

// ---------------------------------------------------------------------------
// File I/O.

JournalWriter::JournalWriter(const std::string& path) : path_(path) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_.is_open()) {
    throw std::runtime_error("journal: cannot open " + path + " for writing");
  }
}

void JournalWriter::write(const JournalEvent& event) {
  const std::string line = to_ndjson(event);
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  out_.put('\n');
}

void JournalWriter::flush() { out_.flush(); }

std::vector<JournalEvent> read_journal_file(const std::string& path) {
  std::string raw;
  if (path == "-") {
    // Piped journals ("zsdetect ... | zsreport -"): slurp stdin.
    raw.assign(std::istreambuf_iterator<char>(std::cin),
               std::istreambuf_iterator<char>());
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      throw std::runtime_error("journal: cannot open " + path);
    }
    raw.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }

  std::vector<JournalEvent> events;
  std::string_view rest(raw);
  while (!rest.empty()) {
    const std::size_t newline = rest.find('\n');
    const std::string_view line = rest.substr(0, newline);
    rest = newline == std::string_view::npos ? std::string_view{}
                                             : rest.substr(newline + 1);
    if (line.empty()) continue;
    if (const auto event = parse_ndjson(line); event.has_value()) {
      events.push_back(*event);
    }
  }
  return events;
}

// ---------------------------------------------------------------------------
// The journal.

Journal::Journal(std::size_t capacity) : ring_(capacity) {}

Journal& Journal::global() {
  static Journal* journal = [] {
    auto* j = new Journal();
    j->bind_counters(
        Registry::global().counter("zs_journal_events_emitted_total"),
        Registry::global().counter("zs_journal_events_dropped_total"));
    return j;
  }();
  return *journal;
}

void Journal::bind_counters(Counter emitted, Counter dropped) {
  m_emitted_ = emitted;
  m_dropped_ = dropped;
}

void Journal::emit_runtime(std::uint32_t category, const JournalEvent& event) {
  if ((mask_.load(std::memory_order_relaxed) & category) == 0) return;
  if (ring_.try_push(event)) {
    emitted_.fetch_add(1, std::memory_order_relaxed);
    m_emitted_.inc();
    if (autopump_.load(std::memory_order_relaxed) &&
        approx_size() > capacity() / 2) {
      pump();
    }
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    m_dropped_.inc();
  }
}

std::size_t Journal::pump() {
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  std::size_t moved = 0;
  JournalEvent event;
  while (ring_.try_pop(event)) {
    if (writer_ != nullptr) writer_->write(event);
    recent_.push_back(event);
    while (recent_.size() > kRecentCapacity) recent_.pop_front();
    ++moved;
  }
  if (moved > 0 && writer_ != nullptr) writer_->flush();
  return moved;
}

std::vector<JournalEvent> Journal::tail(std::size_t n) {
  pump();
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  const std::size_t count = std::min(n, recent_.size());
  return std::vector<JournalEvent>(recent_.end() - static_cast<std::ptrdiff_t>(count),
                                   recent_.end());
}

void Journal::attach_writer(std::unique_ptr<JournalWriter> writer) {
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  writer_ = std::move(writer);
}

void Journal::close_writer() {
  pump();
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  if (writer_ != nullptr) {
    writer_->flush();
    writer_.reset();
  }
}

void Journal::reset() {
  std::lock_guard<std::mutex> lock(consumer_mutex_);
  JournalEvent discard;
  while (ring_.try_pop(discard)) {
  }
  recent_.clear();
  emitted_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace zombiescope::obs
