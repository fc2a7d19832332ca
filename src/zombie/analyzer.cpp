#include "zombie/analyzer.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

namespace zombiescope::zombie {

std::vector<EmergenceRate> emergence_rates(const IntervalDetectionResult& result,
                                           netbase::AddressFamily family,
                                           bool deduplicated) {
  // Denominators: how many intervals each ⟨beacon, peerAS⟩ saw.
  std::map<std::pair<netbase::Prefix, bgp::Asn>, EmergenceRate> rates;
  for (const auto& vis : result.visibility) {
    if (vis.prefix.family() != family) continue;
    for (bgp::Asn asn : vis.announcing_asns) {
      EmergenceRate& r = rates[{vis.prefix, asn}];
      r.beacon = vis.prefix;
      r.peer_asn = asn;
      ++r.announcements;
    }
  }
  // Numerators: distinct ⟨beacon, interval, peerAS⟩ zombie hits (a
  // peer AS with two stuck routers still counts once per interval). A
  // stuck route is an announcement inside its interval, so its peer AS
  // is among the interval's announcing ASes.
  std::set<std::tuple<netbase::Prefix, netbase::TimePoint, bgp::Asn>> hits;
  for (const auto& route : result.routes) {
    if (route.prefix.family() != family) continue;
    if (deduplicated && route.duplicate) continue;
    if (hits.insert({route.prefix, route.interval_start, route.peer.asn}).second)
      ++rates.at({route.prefix, route.peer.asn}).zombies;
  }
  std::vector<EmergenceRate> out;
  out.reserve(rates.size());
  for (auto& [key, r] : rates) {
    (void)key;
    out.push_back(r);
  }
  return out;
}

PathLengthPopulations path_length_populations(const IntervalDetectionResult& result,
                                              netbase::AddressFamily family,
                                              bool deduplicated) {
  PathLengthPopulations out;
  int zombies = 0;
  int changed = 0;
  for (const auto& obs : result.observations) {
    if (obs.prefix.family() != family) continue;
    if (obs.is_zombie()) {
      if (deduplicated && obs.duplicate) continue;
      out.zombie_paths.push_back(obs.zombie_path->length());
      if (obs.normal_path.has_value())
        out.normal_at_zombie_peers.push_back(obs.normal_path->length());
      ++zombies;
      if (!obs.normal_path.has_value() || !(*obs.normal_path == *obs.zombie_path)) ++changed;
    } else if (obs.normal_path.has_value()) {
      out.normal_at_normal_peers.push_back(obs.normal_path->length());
    }
  }
  out.changed_path_fraction =
      zombies == 0 ? 0.0 : static_cast<double>(changed) / static_cast<double>(zombies);
  return out;
}

std::vector<int> concurrent_outbreaks(std::span<const ZombieOutbreak> outbreaks,
                                      netbase::AddressFamily family) {
  std::map<netbase::TimePoint, int> per_interval;
  for (const auto& outbreak : outbreaks)
    if (outbreak.prefix.family() == family) ++per_interval[outbreak.interval_start];
  std::vector<int> out;
  for (const auto& outbreak : outbreaks)
    if (outbreak.prefix.family() == family)
      out.push_back(per_interval[outbreak.interval_start]);
  return out;
}

}  // namespace zombiescope::zombie
