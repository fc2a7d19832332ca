#include "zombie/noisy.hpp"

#include <algorithm>

#include "zombie/detector_metrics.hpp"

namespace zombiescope::zombie {

std::vector<PeerStats> NoisyPeerFilter::stats(std::span<const ZombieRoute> routes,
                                              std::span<const PeerKey> peers,
                                              int total_announcements) const {
  std::map<PeerKey, PeerStats> by_peer;
  for (const PeerKey& peer : peers) {
    PeerStats s;
    s.peer = peer;
    s.announcements = total_announcements;
    by_peer.emplace(peer, s);
  }
  for (const auto& route : routes) {
    auto it = by_peer.find(route.peer);
    if (it == by_peer.end()) {
      PeerStats s;
      s.peer = route.peer;
      s.announcements = total_announcements;
      it = by_peer.emplace(route.peer, s).first;
    }
    ++it->second.zombie_routes;
  }
  std::vector<PeerStats> out;
  out.reserve(by_peer.size());
  for (auto& [peer, s] : by_peer) {
    (void)peer;
    out.push_back(s);
  }
  return out;
}

std::vector<PeerStats> NoisyPeerFilter::noisy_peers(std::span<const PeerStats> stats) const {
  const double median = median_probability(stats);
  std::vector<PeerStats> out;
  for (const auto& s : stats) {
    if (is_noisy(s.probability(), median)) out.push_back(s);
  }
  std::sort(out.begin(), out.end(), [](const PeerStats& a, const PeerStats& b) {
    return a.probability() > b.probability();
  });
  internal::detector_metrics().noisy_hits.inc(out.size());
  return out;
}

std::set<PeerKey> NoisyPeerFilter::noisy_peer_keys(std::span<const ZombieRoute> routes,
                                                   std::span<const PeerKey> peers,
                                                   int total_announcements) const {
  const auto all = stats(routes, peers, total_announcements);
  std::set<PeerKey> out;
  for (const auto& s : noisy_peers(all)) out.insert(s.peer);
  return out;
}

double NoisyPeerFilter::median_probability(std::span<const PeerStats> stats) {
  std::vector<double> values;
  values.reserve(stats.size());
  for (const auto& s : stats) values.push_back(s.probability());
  return median(std::move(values));
}

double NoisyPeerFilter::median(std::vector<double> probabilities) {
  if (probabilities.empty()) return 0.0;
  std::sort(probabilities.begin(), probabilities.end());
  const std::size_t n = probabilities.size();
  return n % 2 == 1 ? probabilities[n / 2]
                    : (probabilities[n / 2 - 1] + probabilities[n / 2]) / 2.0;
}

}  // namespace zombiescope::zombie
