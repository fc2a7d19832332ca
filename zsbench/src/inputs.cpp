#include "inputs.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>

#include "mrt/codec.hpp"
#include "scenarios/longlived2024.hpp"
#include "zombie/longlived.hpp"

namespace zsbench {

namespace zs = zombiescope;

namespace {

/// The kMaxWireSessions sessions with the largest 90-minute batch
/// zombie sets (ties: more records first). Ranking by zombies keeps the
/// replay's mix alike from seed to seed.
std::vector<zs::zombie::PeerKey> pick_wire_peers(
    const std::vector<zs::mrt::MrtRecord>& updates,
    const std::vector<zs::beacon::BeaconEvent>& events) {
  const zs::zombie::LongLivedZombieDetector detector{zs::zombie::LongLivedConfig{}};
  std::map<zs::zombie::PeerKey, std::pair<std::size_t, std::size_t>> rank;  // pairs, records
  for (const auto& outbreak : detector.detect(updates, events, 90 * zs::netbase::kMinute).outbreaks)
    for (const auto& route : outbreak.routes) ++rank[route.peer].first;
  for (const auto& record : updates) {
    const auto* msg = std::get_if<zs::mrt::Bgp4mpMessage>(&record);
    if (msg == nullptr) continue;
    const auto it = rank.find({msg->peer_asn, msg->peer_address});
    if (it != rank.end()) ++it->second.second;
  }
  std::vector<std::pair<std::pair<std::size_t, std::size_t>, zs::zombie::PeerKey>> ranked;
  for (const auto& [peer, score] : rank) ranked.emplace_back(score, peer);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<zs::zombie::PeerKey> chosen;
  for (std::size_t i = 0; i < ranked.size() && i < kMaxWireSessions; ++i)
    chosen.push_back(ranked[i].second);
  return chosen;
}

}  // namespace

Archive generate_archive(std::uint64_t seed) {
  zs::scenarios::LongLived2024Spec spec;
  spec.seed = seed;
  auto output = zs::scenarios::run_longlived2024(spec);
  Archive archive;
  archive.updates_mrt = zs::mrt::encode_all(output.updates);
  archive.ribs_mrt = zs::mrt::encode_all(output.rib_dumps);
  archive.events = std::move(output.events);
  archive.wire_peers = pick_wire_peers(output.updates, archive.events);
  archive.pinned_pairs = seed == kDefaultSeed ? kDefaultSeedPairs : 0;
  return archive;
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("zsbench: cannot write " + path);
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("zsbench: cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_archive(const Archive& archive, const std::string& dir) {
  write_bytes(dir + "/updates.mrt", archive.updates_mrt);
  write_bytes(dir + "/ribs.mrt", archive.ribs_mrt);
  std::ofstream events(dir + "/events.txt", std::ios::trunc);
  for (const auto& event : archive.events)
    events << event.prefix.to_string() << ' ' << event.announce_time << ' '
           << event.withdraw_time << ' ' << (event.superseded ? 1 : 0) << '\n';
  std::ofstream manifest(dir + "/manifest.txt", std::ios::trunc);
  manifest << "pinned_pairs " << archive.pinned_pairs << '\n';
  for (const auto& peer : archive.wire_peers)
    manifest << "wire_peer " << peer.asn << ' ' << peer.address.to_string() << '\n';
  if (!events || !manifest) throw std::runtime_error("zsbench: cannot write " + dir);
}

Archive read_archive(const std::string& dir) {
  Archive archive;
  archive.updates_mrt = read_bytes(dir + "/updates.mrt");
  archive.ribs_mrt = read_bytes(dir + "/ribs.mrt");
  std::ifstream events(dir + "/events.txt");
  if (!events) throw std::runtime_error("zsbench: no events.txt in " + dir);
  std::string prefix;
  zs::beacon::BeaconEvent event;
  int superseded = 0;
  while (events >> prefix >> event.announce_time >> event.withdraw_time >> superseded) {
    event.prefix = zs::netbase::Prefix::parse(prefix);
    event.superseded = superseded != 0;
    archive.events.push_back(event);
  }
  std::ifstream manifest(dir + "/manifest.txt");
  if (!manifest) throw std::runtime_error("zsbench: no manifest.txt in " + dir);
  std::string line;
  while (std::getline(manifest, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "pinned_pairs") {
      fields >> archive.pinned_pairs;
    } else if (key == "wire_peer") {
      zs::zombie::PeerKey peer;
      std::string address;
      fields >> peer.asn >> address;
      peer.address = zs::netbase::IpAddress::parse(address);
      archive.wire_peers.push_back(peer);
    }
  }
  if (archive.events.empty() || archive.wire_peers.empty())
    throw std::runtime_error("zsbench: incomplete inputs in " + dir);
  return archive;
}

}  // namespace zsbench
