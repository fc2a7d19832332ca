#include "layers.hpp"

#include <algorithm>
#include <deque>

#include "bgp/update.hpp"
#include "live/service.hpp"
#include "mrt/codec.hpp"
#include "sysstat.hpp"
#include "wire/bridge.hpp"
#include "wire/message.hpp"
#include "zombie/realtime.hpp"

namespace zsbench {

namespace zs = zombiescope;

namespace {

double elapsed_ns(std::uint64_t start) { return static_cast<double>(now_ns() - start); }

void mrt_pass(const Inputs& in, std::map<std::string, double>& out,
              std::vector<std::string>& errors) {
  std::vector<double> ns;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t start = now_ns();
    const auto records = zs::mrt::decode_all(in.archive.updates_mrt);
    ns.push_back(elapsed_ns(start) / static_cast<double>(records.size()));
    if (records.size() != in.updates.size()) errors.push_back("mrt: record count differs");
  }
  out["mrt.decode_ns_per_record"] = median(ns);
}

std::vector<const zs::mrt::Bgp4mpMessage*> messages(const Inputs& in) {
  std::vector<const zs::mrt::Bgp4mpMessage*> out;
  for (const auto& record : in.updates)
    if (const auto* msg = std::get_if<zs::mrt::Bgp4mpMessage>(&record)) out.push_back(msg);
  return out;
}

void bgp_pass(const Inputs& in, std::map<std::string, double>& out,
              std::vector<std::string>& errors) {
  const auto msgs = messages(in);
  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(msgs.size());
  std::uint64_t start = now_ns();
  for (const auto* msg : msgs) encoded.push_back(msg->update.encode());
  out["bgp.update_encode_ns"] = elapsed_ns(start) / static_cast<double>(msgs.size());

  std::size_t prefixes = 0;
  start = now_ns();
  for (const auto& bytes : encoded) {
    const auto update = zs::bgp::UpdateMessage::decode(bytes);
    prefixes += update.announced.size() + update.withdrawn.size();
  }
  out["bgp.update_decode_ns"] = elapsed_ns(start) / static_cast<double>(msgs.size());
  std::size_t want = 0;
  for (const auto* msg : msgs) want += msg->update.announced.size() + msg->update.withdrawn.size();
  if (prefixes != want) errors.push_back("bgp: UPDATE round trip lost prefixes");
}

void wire_pass(const Inputs& in, std::map<std::string, double>& out,
               std::vector<std::string>& errors) {
  const auto msgs = messages(in);
  std::vector<std::uint8_t> stream;
  std::size_t sent = 0;
  std::uint64_t start = now_ns();
  for (const auto* msg : msgs) {
    for (auto& part : zs::wire::split_update(msg->update)) {
      zs::wire::stamp_update(part, {msg->timestamp, sent++});
      const auto bytes = zs::wire::encode_update(part);
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }
  }
  out["wire.encode_ns_per_msg"] = elapsed_ns(start) / static_cast<double>(sent);

  // The receive side as a socket would see it: 64 KiB reads into a
  // FrameReader, every complete frame decoded.
  constexpr std::size_t kRead = 64 * 1024;
  std::size_t received = 0;
  start = now_ns();
  zs::wire::FrameReader reader;
  for (std::size_t off = 0; off < stream.size(); off += kRead) {
    reader.append(stream.data() + off, std::min(kRead, stream.size() - off));
    while (auto frame = reader.next()) {
      auto update = zs::wire::decode_update(*frame);
      received += zs::wire::extract_stamp(update).has_value() ? 1 : 0;
    }
  }
  out["wire.frame_decode_ns_per_msg"] = elapsed_ns(start) / static_cast<double>(sent);
  if (received != sent) errors.push_back("wire: framed message count differs");
}

struct RealtimeTiming {
  double total_ns = 0.0;
  double q1_ns_per_record = 0.0;  // first quarter of the records
  double q4_ns_per_record = 0.0;  // last quarter
};

/// One RealTimeZombieDetector, single-threaded, over `records`, with
/// the beacon events released in stream order as a live shard does.
/// Collects the batch-equivalent (on-deadline) alerts into `emerged`.
RealtimeTiming run_realtime(const std::vector<const zs::mrt::MrtRecord*>& records,
                            std::vector<zs::beacon::BeaconEvent> events, PairList& emerged) {
  zs::zombie::RealTimeConfig config;
  config.threshold = 90 * zs::netbase::kMinute;
  zs::zombie::RealTimeZombieDetector detector(config);
  detector.on_alert([&](const zs::zombie::ZombieAlert& alert) {
    if (alert.raised_at == alert.withdrawn_at + config.threshold)
      emerged.emplace_back(alert.prefix, alert.peer);
  });
  std::stable_sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.announce_time < b.announce_time;
  });
  zs::netbase::TimePoint last_deadline = 0;
  for (const auto& event : events)
    last_deadline = std::max(last_deadline, event.withdraw_time + config.threshold);
  std::size_t next_event = 0;
  const auto release_until = [&](zs::netbase::TimePoint t) {
    for (; next_event < events.size() && events[next_event].announce_time <= t; ++next_event) {
      detector.advance(events[next_event].announce_time);
      detector.expect(events[next_event]);
    }
  };

  const std::size_t n = records.size();
  const std::size_t q1_end = n / 4;
  const std::size_t q4_start = n - n / 4;
  const std::uint64_t start = now_ns();
  std::uint64_t q1_ns = 0;
  std::uint64_t q4_from = start;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == q1_end) q1_ns = now_ns() - start;
    if (i == q4_start) q4_from = now_ns();
    release_until(zs::mrt::record_timestamp(*records[i]));
    detector.ingest(*records[i]);
  }
  const std::uint64_t q4_ns = now_ns() - q4_from;
  release_until(last_deadline);
  detector.advance(last_deadline + 1);
  RealtimeTiming timing;
  timing.total_ns = elapsed_ns(start);
  timing.q1_ns_per_record = static_cast<double>(q1_ns) / static_cast<double>(std::max<std::size_t>(q1_end, 1));
  timing.q4_ns_per_record = static_cast<double>(q4_ns) / static_cast<double>(std::max<std::size_t>(n - q4_start, 1));
  return timing;
}

/// The archive split across kLiveShards the way LiveService::submit
/// routes it: by prefix, multi-shard UPDATEs cut into per-shard pieces,
/// state changes to every shard.
struct Partition {
  std::vector<std::vector<const zs::mrt::MrtRecord*>> shards;
  std::deque<zs::mrt::MrtRecord> pieces;  // owns the cut UPDATEs
};

Partition partition(const std::vector<zs::mrt::MrtRecord>& records, std::size_t shards) {
  Partition out;
  out.shards.resize(shards);
  for (const auto& record : records) {
    const auto* msg = std::get_if<zs::mrt::Bgp4mpMessage>(&record);
    if (msg == nullptr) {
      for (auto& shard : out.shards) shard.push_back(&record);
      continue;
    }
    std::vector<zs::mrt::Bgp4mpMessage> cut(shards, *msg);
    for (auto& piece : cut) piece.update.announced.clear(), piece.update.withdrawn.clear();
    for (const auto& prefix : msg->update.announced)
      cut[zs::live::shard_for(prefix, shards)].update.announced.push_back(prefix);
    for (const auto& prefix : msg->update.withdrawn)
      cut[zs::live::shard_for(prefix, shards)].update.withdrawn.push_back(prefix);
    std::size_t used = 0;
    for (const auto& piece : cut)
      used += piece.update.announced.empty() && piece.update.withdrawn.empty() ? 0 : 1;
    if (used <= 1) {
      // Whole record to one shard (an empty UPDATE goes to shard 0).
      std::size_t target = 0;
      for (std::size_t i = 0; i < shards; ++i)
        if (!cut[i].update.announced.empty() || !cut[i].update.withdrawn.empty()) target = i;
      out.shards[target].push_back(&record);
      continue;
    }
    for (std::size_t i = 0; i < shards; ++i) {
      if (cut[i].update.announced.empty() && cut[i].update.withdrawn.empty()) continue;
      out.pieces.emplace_back(std::move(cut[i]));
      out.shards[i].push_back(&out.pieces.back());
    }
  }
  return out;
}

/// The whole archive through one detector (cost growth with watch
/// state shows between the first and last quarter), then each live
/// shard's partition through its own detector: the realtime work the
/// sharded service does, without queues, publishing or peerq.
void realtime_pass(const Inputs& in, std::map<std::string, double>& out,
                   std::vector<std::string>& errors) {
  std::vector<const zs::mrt::MrtRecord*> all;
  all.reserve(in.updates.size());
  for (const auto& record : in.updates) all.push_back(&record);
  PairList emerged;
  const RealtimeTiming whole = run_realtime(all, in.archive.events, emerged);
  out["zombie.realtime_ns_per_record"] = whole.total_ns / static_cast<double>(all.size());
  out["zombie.realtime_ns_per_record_q1"] = whole.q1_ns_per_record;
  out["zombie.realtime_ns_per_record_q4"] = whole.q4_ns_per_record;
  std::sort(emerged.begin(), emerged.end());
  emerged.erase(std::unique(emerged.begin(), emerged.end()), emerged.end());
  if (const std::string diff = compare_pairs(emerged, in.pairs, in.deadline_ties); !diff.empty())
    errors.push_back("realtime: " + diff);

  const Partition parts = partition(in.updates, kLiveShards);
  double sharded_ns = 0.0;
  for (std::size_t shard = 0; shard < kLiveShards; ++shard) {
    std::vector<zs::beacon::BeaconEvent> events;
    for (const auto& event : in.archive.events)
      if (zs::live::shard_for(event.prefix, kLiveShards) == shard) events.push_back(event);
    PairList ignored;
    sharded_ns += run_realtime(parts.shards[shard], std::move(events), ignored).total_ns;
  }
  out["zombie.realtime_sharded_total_s"] = sharded_ns * 1e-9;
}

}  // namespace

void run_layer_passes(const Inputs& in, std::map<std::string, double>& out,
                      std::vector<std::string>& errors) {
  mrt_pass(in, out, errors);
  bgp_pass(in, out, errors);
  wire_pass(in, out, errors);
  realtime_pass(in, out, errors);
}

}  // namespace zsbench
