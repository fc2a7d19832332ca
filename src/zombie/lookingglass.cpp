#include "zombie/lookingglass.hpp"

#include <set>
#include <tuple>

namespace zombiescope::zombie {

MissingCounts count_missing(std::span<const ZombieRoute> ours,
                            std::span<const ZombieOutbreak> our_outbreaks,
                            std::span<const ZombieRoute> theirs,
                            std::span<const ZombieOutbreak> their_outbreaks) {
  using RouteKey = std::tuple<netbase::Prefix, netbase::TimePoint, PeerKey>;
  using OutbreakKey = std::pair<netbase::Prefix, netbase::TimePoint>;
  std::set<RouteKey> their_routes;
  for (const auto& r : theirs) their_routes.insert({r.prefix, r.interval_start, r.peer});
  std::set<OutbreakKey> their_breaks;
  for (const auto& o : their_outbreaks) their_breaks.insert({o.prefix, o.interval_start});

  MissingCounts out;
  std::set<RouteKey> seen_routes;
  for (const auto& r : ours) {
    const RouteKey key{r.prefix, r.interval_start, r.peer};
    if (!seen_routes.insert(key).second) continue;
    if (their_routes.contains(key)) continue;
    (r.prefix.is_v4() ? out.routes_v4 : out.routes_v6)++;
  }
  std::set<OutbreakKey> seen_breaks;
  for (const auto& o : our_outbreaks) {
    const OutbreakKey key{o.prefix, o.interval_start};
    if (!seen_breaks.insert(key).second) continue;
    if (their_breaks.contains(key)) continue;
    (o.prefix.is_v4() ? out.outbreaks_v4 : out.outbreaks_v6)++;
  }
  return out;
}

}  // namespace zombiescope::zombie
