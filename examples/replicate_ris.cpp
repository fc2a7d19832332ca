// replicate_ris — a compact version of the §3 replication pipeline:
// RIS beacons on a 4-hour cycle, a stalled transit AS creating a
// multi-interval zombie, and the Aggregator-clock deduplication at
// work (with the decoded clocks printed, as in the paper's worked
// example).
//
// Build & run:  ./build/examples/replicate_ris

#include <cstdio>

#include "beacon/driver.hpp"
#include "collector/collector.hpp"
#include "netbase/rng.hpp"
#include "scenarios/common.hpp"
#include "zombie/interval_detector.hpp"

using namespace zombiescope;

int main() {
  topology::GeneratorParams params;
  params.tier1_count = 4;
  params.tier2_count = 12;
  params.tier3_count = 40;
  netbase::Rng rng(20180719);
  auto topo = topology::generate_hierarchical(params, rng);
  std::vector<bgp::Asn> tier2, stubs;
  for (bgp::Asn asn : topo.all_asns()) {
    if (topo.info(asn).tier == 2) tier2.push_back(asn);
    if (topo.info(asn).tier == 3) stubs.push_back(asn);
  }
  const bgp::Asn origin = 12654;  // the RIS beacon AS
  topo.add_as({origin, 3, "RIS-beacons"});
  topo.add_link(tier2[0], origin, topology::Relationship::kCustomer);
  topo.add_link(tier2[1], origin, topology::Relationship::kCustomer);

  simnet::Simulation sim(topo, simnet::SimConfig{}, rng.fork());
  collector::Collector rrc("rrc00", 12654, netbase::IpAddress::parse("193.0.4.28"));
  for (int i = 0; i < 6; ++i) {
    collector::SessionConfig session;
    session.peer_asn = stubs[static_cast<std::size_t>(i * 5)];
    session.peer_address = scenarios::peer_address_for(session.peer_asn, i, i % 2 == 0);
    rrc.add_peer(sim, session, rng.fork());
  }

  // One transit AS goes deaf for ~a day: every monitored customer that
  // routes through it re-surfaces the stale routes interval after
  // interval — with the ORIGINAL Aggregator clock.
  const auto start = netbase::utc(2018, 7, 19);
  simnet::ReceiveStall stall;
  stall.asn = tier2[2];
  stall.window = {start + 4 * netbase::kHour + 30 * netbase::kMinute,
                  start + 28 * netbase::kHour};
  sim.add_receive_stall(stall);

  // Two days of the classic RIS schedule (announce every 4h, withdraw
  // +2h), Aggregator clock stamped at origination.
  const auto schedule = beacon::RisBeaconSchedule::classic();
  beacon::BeaconDriver driver(sim, origin, /*with_aggregator_clock=*/true);
  driver.drive(schedule.events(start, start + 2 * netbase::kDay));
  sim.run_until(start + 2 * netbase::kDay + 6 * netbase::kHour);

  const auto archive = scenarios::through_mrt_codec(rrc.updates());
  zombie::IntervalZombieDetector detector({});
  const auto result = detector.detect(archive, driver.ground_truth(), 90 * netbase::kMinute);

  std::printf("archived records: %zu | visible <beacon, interval> pairs: %d\n\n",
              archive.size(), result.visible_prefixes);
  std::printf("outbreaks with double-counting:    %zu\n",
              result.outbreaks_with_duplicates.size());
  std::printf("outbreaks without double-counting: %zu\n\n",
              result.outbreaks_deduplicated.size());

  std::printf("duplicate zombies caught by the Aggregator clock (first 10):\n");
  int shown = 0;
  for (const auto& route : result.routes) {
    if (!route.duplicate || ++shown > 10) continue;
    std::printf("  %-18s interval %s: stuck announcement originated %s -> duplicate\n",
                route.prefix.to_string().c_str(),
                netbase::format_utc(route.interval_start).c_str(),
                route.aggregator_time.has_value()
                    ? netbase::format_utc(*route.aggregator_time).c_str()
                    : "?");
  }
  if (shown == 0) std::printf("  (none this run)\n");
  return 0;
}
