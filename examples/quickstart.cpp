// quickstart — the smallest end-to-end zombiescope pipeline:
//
//   1. build a toy AS topology and a BGP simulation;
//   2. announce and withdraw a beacon prefix, with one router failing
//      to propagate the withdrawal (the zombie seed);
//   3. archive what a route collector saw, as real MRT bytes;
//   4. run the zombie detector on the archive and print the outbreak
//      with its root-cause inference.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "collector/collector.hpp"
#include "mrt/codec.hpp"
#include "netbase/rng.hpp"
#include "zombie/interval_detector.hpp"
#include "zombie/rootcause.hpp"

using namespace zombiescope;

int main() {
  using topology::Relationship;

  // A diamond: the origin is multihomed; T1b will keep the zombie.
  //
  //        T1a ---- T1b        (Tier-1 peering)
  //        /  \      |
  //      M1    M2   M3
  //       \    |    /
  //         origin (AS65000)
  topology::Topology topo;
  topo.add_as({1, 1, "T1a"});
  topo.add_as({2, 1, "T1b"});
  topo.add_as({11, 2, "M1"});
  topo.add_as({12, 2, "M2"});
  topo.add_as({13, 2, "M3"});
  topo.add_as({65000, 3, "origin"});
  topo.add_link(1, 2, Relationship::kPeer);
  topo.add_link(1, 11, Relationship::kCustomer);
  topo.add_link(1, 12, Relationship::kCustomer);
  topo.add_link(2, 13, Relationship::kCustomer);
  topo.add_link(11, 65000, Relationship::kCustomer);
  topo.add_link(12, 65000, Relationship::kCustomer);
  topo.add_link(13, 65000, Relationship::kCustomer);

  simnet::Simulation sim(topo, simnet::SimConfig{}, netbase::Rng(42));

  // A collector peers with T1b — that's what RIPE RIS would see.
  collector::Collector rrc("rrc99", 12654, netbase::IpAddress::parse("193.0.4.28"));
  collector::SessionConfig session;
  session.peer_asn = 2;
  session.peer_address = netbase::IpAddress::parse("2001:7f8::2:1");
  rrc.add_peer(sim, session, netbase::Rng(7));

  // The fault: M3 fails to propagate withdrawals to T1b.
  simnet::WithdrawalSuppression fault;
  fault.from_asn = 13;
  fault.to_asn = 2;
  fault.window = {0, std::nullopt};
  sim.add_withdrawal_suppression(fault);

  // One beacon cycle: announce at 12:00, withdraw at 12:15.
  const auto t0 = netbase::utc(2024, 6, 4, 12, 0, 0);
  const auto beacon = netbase::Prefix::parse("2a0d:3dc1:1200::/48");
  sim.announce(t0, 65000, beacon);
  sim.withdraw(t0 + 15 * netbase::kMinute, 65000, beacon);
  sim.run_until(t0 + 4 * netbase::kHour);

  std::printf("--- collector archive (%zu MRT records) ---\n", rrc.updates().size());
  for (const auto& record : rrc.updates())
    std::printf("  %s\n", mrt::record_summary(record).c_str());

  // Round-trip through binary MRT, exactly like reading RIS raw data.
  const auto archive = mrt::decode_all(mrt::encode_all(rrc.updates()));

  // Detect: is the beacon still present 90 minutes past the withdrawal?
  std::vector<beacon::BeaconEvent> events{
      {beacon, t0, t0 + 15 * netbase::kMinute, false}};
  zombie::IntervalZombieDetector detector({});
  const auto result = detector.detect(archive, events, 90 * netbase::kMinute);

  std::printf("\n--- detection (threshold 90 min) ---\n");
  if (result.outbreaks_with_duplicates.empty()) {
    std::printf("no zombies — try removing the withdrawal suppression!\n");
    return 0;
  }
  for (const auto& outbreak : result.outbreaks_with_duplicates) {
    std::printf("ZOMBIE OUTBREAK: %s, %d stuck peer(s)\n",
                outbreak.prefix.to_string().c_str(), outbreak.route_count());
    for (const auto& route : outbreak.routes)
      std::printf("  stuck at %s  path [%s]\n", zombie::to_string(route.peer).c_str(),
                  route.path.to_string().c_str());
    const auto cause = zombie::infer_root_cause(outbreak);
    std::printf("  root-cause suspect: AS%u (chain: %s)\n", cause.suspect.value_or(0),
                cause.common_subpath().c_str());
  }
  return 0;
}
