#include "live/feed.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "collector/collector.hpp"
#include "mrt/codec.hpp"
#include "netbase/json.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "simnet/simulation.hpp"
#include "topology/topology.hpp"

namespace zombiescope::live {

namespace {

obs::Counter feed_records_counter() {
  return obs::Registry::global().counter("zs_live_feed_records_total");
}
obs::Counter feed_parse_errors_counter() {
  return obs::Registry::global().counter("zs_live_feed_parse_errors_total");
}

/// An integer in [0, 4294967295], or nullopt: RIS-Live numbers the
/// record cannot hold reject the line.
std::optional<bgp::Asn> asn_of_number(double n) {
  if (!(n >= 0 && n <= 4294967295.0) || n != std::floor(n)) return std::nullopt;
  return static_cast<bgp::Asn>(n);
}

/// peer_asn arrives as "64500" in RIS-Live but some producers send a
/// bare number; accept both.
std::optional<bgp::Asn> parse_asn(const netbase::JsonValue* value) {
  if (value == nullptr) return std::nullopt;
  if (value->is_number()) return asn_of_number(value->number);
  if (value->is_string()) {
    const std::string& s = value->str;
    bgp::Asn asn = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), asn);
    if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
    return asn;
  }
  return std::nullopt;
}

/// RIS-Live paths can contain AS_SET members as nested arrays; flatten
/// (the detector only matches paths textually). False when an element
/// is not an ASN.
bool flatten_path(const std::vector<netbase::JsonValue>& array,
                  std::vector<bgp::Asn>& out) {
  for (const netbase::JsonValue& element : array) {
    if (element.is_number()) {
      const auto asn = asn_of_number(element.number);
      if (!asn) return false;
      out.push_back(*asn);
    } else if (element.is_array() && !flatten_path(element.array, out)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<mrt::MrtRecord> parse_ris_live_line(std::string_view line) {
  const auto doc = netbase::parse_json(line);
  if (!doc || !doc->is_object()) return std::nullopt;
  const netbase::JsonValue* object = &*doc;
  if (const netbase::JsonValue* data = object->find("data")) {
    if (!data->is_object()) return std::nullopt;
    object = data;
  }

  std::string type = "UPDATE";
  if (const netbase::JsonValue* t = object->find("type")) {
    if (!t->is_string()) return std::nullopt;
    type = t->str;
  }

  netbase::TimePoint timestamp = 0;
  if (const netbase::JsonValue* ts = object->find("timestamp")) {
    if (!ts->is_number()) return std::nullopt;
    // The parser already refused ±inf; 2^63 itself is out of range.
    const double seconds = std::floor(ts->number);
    if (!(seconds >= -9223372036854775808.0 && seconds < 9223372036854775808.0))
      return std::nullopt;
    timestamp = static_cast<netbase::TimePoint>(seconds);
  }

  const netbase::JsonValue* peer = object->find("peer");
  if (peer == nullptr || !peer->is_string()) return std::nullopt;
  const auto peer_address = netbase::IpAddress::try_parse(peer->str);
  if (!peer_address) return std::nullopt;
  const auto peer_asn = parse_asn(object->find("peer_asn"));
  if (!peer_asn) return std::nullopt;

  if (type == "UPDATE") {
    mrt::Bgp4mpMessage message;
    message.timestamp = timestamp;
    message.peer_asn = *peer_asn;
    message.peer_address = *peer_address;
    if (const netbase::JsonValue* withdrawals = object->find("withdrawals")) {
      if (!withdrawals->is_array()) return std::nullopt;
      for (const netbase::JsonValue& w : withdrawals->array) {
        if (!w.is_string()) return std::nullopt;
        const auto prefix = netbase::Prefix::try_parse(w.str);
        if (!prefix) return std::nullopt;
        message.update.withdrawn.push_back(*prefix);
      }
    }
    if (const netbase::JsonValue* announcements = object->find("announcements")) {
      if (!announcements->is_array()) return std::nullopt;
      for (const netbase::JsonValue& entry : announcements->array) {
        if (!entry.is_object()) return std::nullopt;
        if (const netbase::JsonValue* next_hop = entry.find("next_hop")) {
          if (next_hop->is_string()) {
            message.update.attributes.next_hop =
                netbase::IpAddress::try_parse(next_hop->str);
          }
        }
        const netbase::JsonValue* prefixes = entry.find("prefixes");
        if (prefixes == nullptr || !prefixes->is_array()) return std::nullopt;
        for (const netbase::JsonValue& p : prefixes->array) {
          if (!p.is_string()) return std::nullopt;
          const auto prefix = netbase::Prefix::try_parse(p.str);
          if (!prefix) return std::nullopt;
          message.update.announced.push_back(*prefix);
        }
      }
    }
    if (const netbase::JsonValue* path = object->find("path")) {
      if (path->is_array()) {
        std::vector<bgp::Asn> asns;
        if (!flatten_path(path->array, asns)) return std::nullopt;
        message.update.attributes.as_path = bgp::AsPath::sequence(asns);
      }
    }
    if (message.update.announced.empty() && message.update.withdrawn.empty()) {
      return std::nullopt;  // keepalive-ish UPDATE; nothing to detect on
    }
    return mrt::MrtRecord{std::move(message)};
  }

  if (type == "STATE" || type == "RIS_PEER_STATE") {
    std::string state;
    if (const netbase::JsonValue* s = object->find("state")) {
      if (s->is_string()) state = s->str;
    }
    const bool up =
        state == "connected" || state == "established" || state == "up";
    mrt::Bgp4mpStateChange change;
    change.timestamp = timestamp;
    change.peer_asn = *peer_asn;
    change.peer_address = *peer_address;
    change.old_state = up ? bgp::SessionState::kIdle : bgp::SessionState::kEstablished;
    change.new_state = up ? bgp::SessionState::kEstablished : bgp::SessionState::kIdle;
    return mrt::MrtRecord{change};
  }

  return std::nullopt;  // RIS_ERROR, pong, OPEN dumps, ...
}

// --- ReplayFeedSource ------------------------------------------------

ReplayFeedSource::ReplayFeedSource(std::vector<mrt::MrtRecord> records,
                                   double speed)
    : records_(std::move(records)), speed_(speed) {}

std::unique_ptr<ReplayFeedSource> ReplayFeedSource::from_file(
    const std::string& path, double speed) {
  return std::make_unique<ReplayFeedSource>(mrt::read_file(path), speed);
}

FeedSource::RunStats ReplayFeedSource::run(LiveService& service) {
  RunStats stats;
  if (records_.empty()) return stats;
  const obs::Counter m_records = feed_records_counter();
  const netbase::TimePoint t0 = mrt::record_timestamp(records_.front());
  const auto wall0 = std::chrono::steady_clock::now();
  for (const mrt::MrtRecord& record : records_) {
    if (stop_.load(std::memory_order_relaxed)) break;
    if (speed_ > 0) {
      const double offset =
          static_cast<double>(mrt::record_timestamp(record) - t0) / speed_;
      const auto target = wall0 + std::chrono::duration_cast<
                                      std::chrono::steady_clock::duration>(
                                      std::chrono::duration<double>(offset));
      while (!stop_.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < target) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    // The ingest stamp is taken *after* the pacing wait: pacing models
    // inter-arrival time, so for latency purposes the record "arrives"
    // when the gate releases it.
    service.submit(FeedItem{record, std::chrono::steady_clock::now()});
    ++stats.records;
    m_records.inc();
  }
  return stats;
}

// --- SimTapFeedSource ------------------------------------------------

namespace {

constexpr bgp::Asn kTapOrigin = 65000;
constexpr bgp::Asn kTapTransitA = 65010;
constexpr bgp::Asn kTapTransitB = 65020;
constexpr bgp::Asn kTapPeerClean = 65030;
constexpr bgp::Asn kTapPeerLossy = 65040;
constexpr bgp::Asn kTapPeerFlaky = 65050;
constexpr netbase::TimePoint kTapStart = 300;  // let initial routing settle

netbase::Prefix tap_beacon_prefix(std::size_t i) {
  return netbase::Prefix::parse("100.64." + std::to_string(i % 256) + ".0/24");
}

topology::Topology tap_topology() {
  topology::Topology topo;
  topo.add_as({kTapOrigin, 3, "tap-origin"});
  topo.add_as({kTapTransitA, 1, "tap-transit-a"});
  topo.add_as({kTapTransitB, 1, "tap-transit-b"});
  topo.add_as({kTapPeerClean, 2, "tap-peer-clean"});
  topo.add_as({kTapPeerLossy, 2, "tap-peer-lossy"});
  topo.add_as({kTapPeerFlaky, 2, "tap-peer-flaky"});
  topo.add_link(kTapTransitA, kTapOrigin, topology::Relationship::kCustomer);
  topo.add_link(kTapTransitB, kTapOrigin, topology::Relationship::kCustomer);
  topo.add_link(kTapTransitA, kTapTransitB, topology::Relationship::kPeer);
  topo.add_link(kTapTransitA, kTapPeerClean, topology::Relationship::kCustomer);
  topo.add_link(kTapTransitB, kTapPeerLossy, topology::Relationship::kCustomer);
  topo.add_link(kTapTransitA, kTapPeerFlaky, topology::Relationship::kCustomer);
  topo.add_link(kTapTransitB, kTapPeerFlaky, topology::Relationship::kCustomer);
  return topo;
}

}  // namespace

std::vector<beacon::BeaconEvent> SimTapFeedSource::schedule() const {
  std::vector<beacon::BeaconEvent> events;
  for (std::size_t i = 0; i < config_.beacon_prefixes; ++i) {
    const netbase::Prefix prefix = tap_beacon_prefix(i);
    for (netbase::TimePoint t = kTapStart; t < config_.duration;
         t += config_.beacon_period) {
      events.push_back({prefix, t, t + config_.beacon_uptime, false});
    }
  }
  return events;
}

FeedSource::RunStats SimTapFeedSource::run(LiveService& service) {
  RunStats stats;
  const obs::Counter m_records = feed_records_counter();

  const topology::Topology topo = tap_topology();
  netbase::Rng rng(config_.seed);
  simnet::Simulation sim(topo, simnet::SimConfig{}, rng.fork());

  collector::Collector col("tap", 64999,
                           netbase::IpAddress::parse("198.51.100.1"));
  const netbase::Prefix beacon_covering = netbase::Prefix::parse("100.64.0.0/16");
  collector::SessionConfig clean;
  clean.peer_asn = kTapPeerClean;
  clean.peer_address = netbase::IpAddress::parse("192.0.2.30");
  col.add_peer(sim, clean, rng.fork());
  // The session that makes the demo interesting: it loses *every*
  // beacon withdrawal, so each cycle is a guaranteed zombie on this
  // peer until the next announcement supersedes it.
  collector::SessionConfig lossy;
  lossy.peer_asn = kTapPeerLossy;
  lossy.peer_address = netbase::IpAddress::parse("192.0.2.40");
  lossy.withdrawal_loss_probability = 1.0;
  lossy.noise_prefix_filter = beacon_covering;
  col.add_peer(sim, lossy, rng.fork());
  collector::SessionConfig flaky;
  flaky.peer_asn = kTapPeerFlaky;
  flaky.peer_address = netbase::IpAddress::parse("192.0.2.50");
  flaky.withdrawal_loss_probability = 0.5;
  flaky.noise_prefix_filter = beacon_covering;
  col.add_peer(sim, flaky, rng.fork());

  for (const beacon::BeaconEvent& event : schedule()) {
    sim.announce(event.announce_time, kTapOrigin, event.prefix);
    sim.withdraw(event.withdraw_time, kTapOrigin, event.prefix);
  }

  std::size_t next = 0;
  const auto drain = [&] {
    const std::vector<mrt::MrtRecord>& updates = col.updates();
    for (; next < updates.size(); ++next) {
      // Stamped per record at drain time — the moment the tap hands
      // the collector's update to the live pipeline.
      service.submit(
          FeedItem{updates[next], std::chrono::steady_clock::now()});
      ++stats.records;
      m_records.inc();
    }
  };

  if (config_.speed <= 0) {
    sim.run_until(config_.duration);
    drain();
    return stats;
  }

  const auto wall0 = std::chrono::steady_clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    const auto target = std::min<netbase::TimePoint>(
        config_.duration,
        static_cast<netbase::TimePoint>(elapsed * config_.speed));
    sim.run_until(target);
    drain();
    if (target >= config_.duration) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return stats;
}

// --- TcpNdjsonFeedSource ---------------------------------------------

namespace {

// The longest NDJSON line a client may send. A maximal 65,535-byte
// extended UPDATE (~16k IPv4 prefixes) renders far below this.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

}  // namespace

TcpNdjsonFeedSource::TcpNdjsonFeedSource(std::uint16_t port) {
  if (!reactor_.listen(port))
    throw std::runtime_error("zslive: cannot bind NDJSON feed port " +
                             std::to_string(port));
}

FeedSource::RunStats TcpNdjsonFeedSource::run(LiveService& service) {
  struct Clients final : netbase::Reactor::Handler {
    using ConnId = netbase::Reactor::ConnId;
    using Clock = netbase::Reactor::Clock;

    Clients(netbase::Reactor& r, LiveService& s) : reactor(r), service(s) {}

    void on_open(ConnId id) override { lines[id]; }
    void on_data(ConnId id, std::string_view bytes) override {
      std::string& buffer = lines[id];
      buffer.append(bytes);
      consume(buffer, false);
      if (buffer.size() <= kMaxLineBytes) return;
      // An unterminated line past the cap: drop it unparsed and hang up
      // on the client.
      parse_error();
      buffer.clear();
      reactor.close(id);
    }
    void on_close(ConnId id, netbase::Reactor::Closed) override {
      consume(lines[id], true);  // a final unterminated line
      lines.erase(id);
    }
    Clock::time_point on_turn(Clock::time_point) override {
      return Clock::time_point::max();
    }

    void consume(std::string& buffer, bool flush) {
      std::size_t start = 0;
      for (std::size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        std::string_view line(buffer.data() + start, nl - start);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        if (!line.empty()) submit_line(line);
      }
      buffer.erase(0, start);
      if (!flush) return;
      if (!buffer.empty()) submit_line(buffer);
      buffer.clear();
    }
    void submit_line(std::string_view line) {
      // Stamp before the parse: wire read → enqueue includes the JSON
      // decode cost in the ingest_enqueue stage.
      const auto ingest = std::chrono::steady_clock::now();
      if (auto record = parse_ris_live_line(line)) {
        service.submit(FeedItem{std::move(*record), ingest});
        ++stats.records;
        m_records.inc();
      } else {
        parse_error();
      }
    }
    void parse_error() {
      ++stats.parse_errors;
      m_errors.inc();
    }

    netbase::Reactor& reactor;
    LiveService& service;
    RunStats stats;
    const obs::Counter m_records = feed_records_counter();
    const obs::Counter m_errors = feed_parse_errors_counter();
    std::unordered_map<ConnId, std::string> lines;  // each client's partial line
  } clients(reactor_, service);
  reactor_.run(clients);
  return clients.stats;
}

}  // namespace zombiescope::live
