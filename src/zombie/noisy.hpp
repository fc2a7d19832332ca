// zombie/noisy.hpp — identifying noisy collector peers.
//
// §3.2 and §5 of the paper: a handful of peers are stuck orders of
// magnitude more often than the rest (AS16347 at ~42.8 % vs a 1.58 %
// average; the three RRC25 routers at 6.9–9.9 %). Counting them would
// grossly overestimate zombies, so they are detected statistically and
// excluded.

#pragma once

#include <map>
#include <set>
#include <span>
#include <vector>

#include "zombie/types.hpp"

namespace zombiescope::zombie {

/// Per-peer stuck statistics over a set of beacon announcements.
struct PeerStats {
  PeerKey peer;
  int zombie_routes = 0;     // announcements this peer kept stuck
  int announcements = 0;     // announcements the peer saw (denominator)
  double probability() const {
    return announcements == 0 ? 0.0
                              : static_cast<double>(zombie_routes) / announcements;
  }
};

struct NoisyPeerConfig {
  /// A peer is noisy if its stuck probability exceeds both the floor
  /// and `multiplier` x the median probability of all peers.
  double probability_floor = 0.05;
  double median_multiplier = 4.0;
};

class NoisyPeerFilter {
 public:
  explicit NoisyPeerFilter(NoisyPeerConfig config = {}) : config_(config) {}

  /// Builds per-peer stats. `total_announcements` is the number of
  /// studied beacon announcements (every session is assumed to have
  /// seen each announcement — full-feed peers); `routes` are all
  /// zombie routes found at the reference threshold.
  std::vector<PeerStats> stats(std::span<const ZombieRoute> routes,
                               std::span<const PeerKey> peers,
                               int total_announcements) const;

  /// The peers classified noisy.
  std::vector<PeerStats> noisy_peers(std::span<const PeerStats> stats) const;

  /// Convenience: the PeerKey set of noisy peers.
  std::set<PeerKey> noisy_peer_keys(std::span<const ZombieRoute> routes,
                                    std::span<const PeerKey> peers,
                                    int total_announcements) const;

  /// Median stuck probability of the given peers (Table 4).
  static double median_probability(std::span<const PeerStats> stats);
  /// Median of the probabilities, averaging the middle two for even
  /// counts; 0 when empty.
  static double median(std::vector<double> probabilities);
  /// The rule: noisy iff `probability` exceeds the floor and
  /// `median_multiplier` x the median of every peer's probability.
  bool is_noisy(double probability, double median) const {
    return probability > config_.probability_floor &&
           probability > config_.median_multiplier * median;
  }
  const NoisyPeerConfig& config() const { return config_; }

 private:
  NoisyPeerConfig config_;
};

}  // namespace zombiescope::zombie
