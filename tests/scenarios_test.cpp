// Integration tests for the scenario builders, on trimmed-down specs
// so they run in seconds. These validate the full pipeline: simulate →
// archive MRT → detect.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "mrt/codec.hpp"
#include "scenarios/longlived2024.hpp"
#include "scenarios/ris_replication.hpp"
#include "zombie/analyzer.hpp"
#include "zombie/interval_detector.hpp"
#include "zombie/longlived.hpp"
#include "zombie/lookingglass.hpp"
#include "zombie/noisy.hpp"
#include "zombie/rootcause.hpp"

namespace zombiescope::scenarios {
namespace {

using netbase::kDay;
using netbase::kMinute;
using netbase::utc;

/// FNV-1a-64 of a byte string.
template <typename Bytes>
std::uint64_t fnv1a(const Bytes& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const auto byte : bytes) {
    hash ^= static_cast<std::uint8_t>(byte);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// FNV-1a-64 of an archive's MRT bytes: a pin on every byte of it.
std::uint64_t archive_digest(std::span<const mrt::MrtRecord> records) {
  return fnv1a(mrt::encode_all(records));
}

/// FNV-1a-64 of rendered lines, sorted first, so the pin holds
/// whatever order a detector lists its results in.
std::uint64_t sorted_digest(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return fnv1a(text);
}

RisPeriodSpec short_ris_spec() {
  RisPeriodSpec spec = period_2018jul();
  spec.end = spec.start + 5 * kDay;  // 30 intervals
  // Several stall injections so at least one lands on a transit AS
  // that downstream monitors actually route through (the injection
  // sites are drawn randomly).
  spec.longlived_v4 = 4;
  spec.longlived_v6 = 4;
  spec.span_min_intervals = 3;
  spec.span_max_intervals = 6;
  spec.sessionwide_v4 = 1;
  spec.sessionwide_v6 = 1;
  return spec;
}

TEST(RisScenario, ProducesCoherentArchive) {
  const auto spec = short_ris_spec();
  const auto out = run_ris_period(spec);
  ASSERT_FALSE(out.updates.empty());
  ASSERT_FALSE(out.events.empty());
  EXPECT_EQ(out.events.size(), 30u * 27u);
  // Archive is time-sorted.
  for (std::size_t i = 1; i < out.updates.size(); ++i)
    ASSERT_LE(mrt::record_timestamp(out.updates[i - 1]),
              mrt::record_timestamp(out.updates[i]));
  // The noisy session is among the peers.
  bool noisy_seen = false;
  for (const auto& record : out.updates) {
    const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record);
    if (msg != nullptr && msg->peer_asn == kNoisyRisPeerAsn) noisy_seen = true;
  }
  EXPECT_TRUE(noisy_seen);
  // The archive's bytes, v4 and v6 UPDATEs alike, are pinned.
  EXPECT_EQ(out.updates.size(), 55006u);
  EXPECT_EQ(archive_digest(out.updates), 0xafb09b66fa85b65eull);
}

/// What the §3 detector reports over one archive, as counts and two
/// order-free digests: one over its routes, outbreaks, visibility sets
/// and path observations, one over the Fig. 5-7 reads of them.
struct IntervalPin {
  std::size_t routes = 0;
  std::size_t outbreaks_with_duplicates = 0;
  std::size_t outbreaks_deduplicated = 0;
  int visible = 0;
  std::size_t observations = 0;
  std::uint64_t result_digest = 0;
  std::uint64_t reads_digest = 0;
  friend bool operator==(const IntervalPin&, const IntervalPin&) = default;
};

std::ostream& operator<<(std::ostream& os, const IntervalPin& pin) {
  return os << "{" << pin.routes << ", " << pin.outbreaks_with_duplicates << ", "
            << pin.outbreaks_deduplicated << ", " << pin.visible << ", " << pin.observations
            << ", 0x" << std::hex << pin.result_digest << "ull, 0x" << pin.reads_digest
            << "ull" << std::dec << "}";
}

std::string render_path(const std::optional<bgp::AsPath>& path) {
  return path.has_value() ? path->to_string() : "-";
}

IntervalPin pin_of(const zombie::IntervalDetectionResult& result) {
  IntervalPin pin;
  pin.routes = result.routes.size();
  pin.outbreaks_with_duplicates = result.outbreaks_with_duplicates.size();
  pin.outbreaks_deduplicated = result.outbreaks_deduplicated.size();
  pin.visible = result.visible_prefixes;
  pin.observations = result.observations.size();

  const auto head = [](const char* kind, const netbase::Prefix& prefix,
                       netbase::TimePoint interval_start) {
    return std::string(kind) + " " + prefix.to_string() + " " + std::to_string(interval_start);
  };
  std::vector<std::string> lines;
  for (const auto& route : result.routes)
    lines.push_back(head("route", route.prefix, route.interval_start) + " " +
                    std::to_string(route.withdraw_time) + " " + zombie::to_string(route.peer) +
                    " [" + route.path.to_string() + "] " +
                    (route.aggregator_time ? std::to_string(*route.aggregator_time) : "-") +
                    (route.duplicate ? " duplicate" : ""));
  for (const auto* list : {&result.outbreaks_with_duplicates, &result.outbreaks_deduplicated})
    for (const auto& outbreak : *list) {
      std::string line = head(list == &result.outbreaks_deduplicated ? "dedup" : "outbreak",
                              outbreak.prefix, outbreak.interval_start) +
                         " " + std::to_string(outbreak.withdraw_time);
      for (const auto& route : outbreak.routes) line += " " + zombie::to_string(route.peer);
      lines.push_back(line);
    }
  for (const auto& vis : result.visibility) {
    std::string line = head("visible", vis.prefix, vis.interval_start);
    for (const bgp::Asn asn : vis.announcing_asns) line += " " + std::to_string(asn);
    lines.push_back(line);
  }
  for (const auto& obs : result.observations)
    lines.push_back(head("observed", obs.prefix, obs.interval_start) + " " +
                    zombie::to_string(obs.peer) + " [" + render_path(obs.normal_path) +
                    "] [" + render_path(obs.zombie_path) + "]" +
                    (obs.duplicate ? " duplicate" : ""));
  pin.result_digest = sorted_digest(std::move(lines));

  // The Fig. 5, 6 and 7 reads, per family and route population.
  std::vector<std::string> reads;
  const auto sorted_ints = [](std::vector<int> values) {
    std::sort(values.begin(), values.end());
    std::string out;
    for (const int v : values) out += " " + std::to_string(v);
    return out;
  };
  for (const auto family : {netbase::AddressFamily::kIpv4, netbase::AddressFamily::kIpv6}) {
    const std::string f = family == netbase::AddressFamily::kIpv4 ? "v4" : "v6";
    for (const bool dedup : {false, true}) {
      const std::string d = f + (dedup ? " dedup" : " dup");
      for (const auto& rate : zombie::emergence_rates(result, family, dedup))
        reads.push_back("emergence " + d + " " + rate.beacon.to_string() + " " +
                        std::to_string(rate.peer_asn) + " " + std::to_string(rate.zombies) +
                        "/" + std::to_string(rate.announcements));
      const auto pops = zombie::path_length_populations(result, family, dedup);
      char fraction[32];
      std::snprintf(fraction, sizeof(fraction), "%.17g", pops.changed_path_fraction);
      reads.push_back("pathlen " + d + " normal" + sorted_ints(pops.normal_at_normal_peers) +
                      " zombie-normal" + sorted_ints(pops.normal_at_zombie_peers) + " zombie" +
                      sorted_ints(pops.zombie_paths) + " changed " + fraction);
      const auto& outbreaks =
          dedup ? result.outbreaks_deduplicated : result.outbreaks_with_duplicates;
      reads.push_back("concurrent " + d +
                      sorted_ints(zombie::concurrent_outbreaks(outbreaks, family)));
    }
  }
  pin.reads_digest = sorted_digest(std::move(reads));
  return pin;
}

/// What the looking-glass emulation (Tables 2-3) reports over one
/// archive: counts and a digest over every route and outbreak in
/// output order. The digest is not sorted: the stale-snapshot draws
/// follow that order, so a reordering must fail the pin.
struct LookingGlassPin {
  std::size_t routes = 0;
  std::size_t outbreaks = 0;
  std::uint64_t digest = 0;
  friend bool operator==(const LookingGlassPin&, const LookingGlassPin&) = default;
};

std::ostream& operator<<(std::ostream& os, const LookingGlassPin& pin) {
  return os << "{" << pin.routes << ", " << pin.outbreaks << ", 0x" << std::hex << pin.digest
            << "ull" << std::dec << "}";
}

LookingGlassPin pin_of(const zombie::LookingGlassResult& result) {
  const auto render = [](const zombie::ZombieRoute& route) {
    return route.prefix.to_string() + " " + std::to_string(route.interval_start) + " " +
           std::to_string(route.withdraw_time) + " " + zombie::to_string(route.peer) + " [" +
           route.path.to_string() + "]";
  };
  std::string text;
  for (const auto& route : result.routes) text += "route " + render(route) + "\n";
  for (const auto& outbreak : result.outbreaks) {
    text += "outbreak " + outbreak.prefix.to_string() + " " +
            std::to_string(outbreak.interval_start) + " " +
            std::to_string(outbreak.withdraw_time) + "\n";
    for (const auto& route : outbreak.routes) text += "  " + render(route) + "\n";
  }
  return {result.routes.size(), result.outbreaks.size(), fnv1a(text)};
}

TEST(RisScenario, DetectorFindsZombiesAndDuplicates) {
  const auto out = run_ris_period(short_ris_spec());
  zombie::IntervalZombieDetector detector({});
  const auto result = detector.detect(out.updates, out.events, 90 * kMinute);
  EXPECT_GT(result.outbreaks_with_duplicates.size(), 0u);
  EXPECT_GE(result.outbreaks_with_duplicates.size(), result.outbreaks_deduplicated.size());
  // The long-lived stall must produce at least one Aggregator-flagged
  // duplicate.
  bool duplicate_found = false;
  for (const auto& route : result.routes)
    if (route.duplicate) duplicate_found = true;
  EXPECT_TRUE(duplicate_found);
  // Every announced beacon interval is visible at some peer.
  EXPECT_GT(result.visible_prefixes, 700);

  // Everything the §3 detector reports at 90 minutes is pinned, with
  // every peer and with the noisy peers excluded: routes, outbreaks
  // with and without double-counting, visible <beacon, interval>
  // pairs, path observations, and the Fig. 5-7 reads of them.
  EXPECT_EQ(pin_of(result), (IntervalPin{2160, 468, 259, 810, 11691, 0x8be9df7eae92bbf6ull,
                                         0xfe2389932af05e7bull}));
  zombie::LongLivedConfig clean;
  clean.excluded_peers = out.noisy_peers;
  const auto filtered =
      zombie::IntervalZombieDetector(clean).detect(out.updates, out.events, 90 * kMinute);
  EXPECT_EQ(pin_of(filtered), (IntervalPin{1983, 404, 146, 810, 11050, 0x2dd7475cff2eec3bull,
                                           0x67d5d05dc63df155ull}));

  // The looking-glass emulation of the previous study: by default, and
  // with half of the peers' snapshots stale at the default lag and at
  // no lag, where more of the stale draws decide a route.
  EXPECT_EQ(pin_of(zombie::LookingGlassDetector({}).detect(out.updates, out.events)),
            (LookingGlassPin{2159, 467, 0xa511a2bbd4bddb02ull}));
  zombie::LookingGlassConfig stale;
  stale.stale_snapshot_probability = 0.5;
  EXPECT_EQ(pin_of(zombie::LookingGlassDetector(stale).detect(out.updates, out.events)),
            (LookingGlassPin{2159, 467, 0xa511a2bbd4bddb02ull}));
  stale.lag = 0;
  EXPECT_EQ(pin_of(zombie::LookingGlassDetector(stale).detect(out.updates, out.events)),
            (LookingGlassPin{2160, 469, 0x776becc2b1d96224ull}));
}

TEST(RisScenario, NoisyPeerHasOutlierProbability) {
  const auto out = run_ris_period(short_ris_spec());
  zombie::IntervalZombieDetector detector({});
  const auto result = detector.detect(out.updates, out.events, 90 * kMinute);
  int noisy_routes = 0, other_routes = 0;
  for (const auto& route : result.routes)
    (route.peer.asn == kNoisyRisPeerAsn ? noisy_routes : other_routes)++;
  // v6 events: 14/27 of 810, noisy loses ~43%.
  EXPECT_GT(noisy_routes, 100);
}

TEST(RisScenario, DeterministicAcrossRuns) {
  const auto a = run_ris_period(short_ris_spec());
  const auto b = run_ris_period(short_ris_spec());
  ASSERT_EQ(a.updates.size(), b.updates.size());
  EXPECT_EQ(a.sim_stats.messages_delivered, b.sim_stats.messages_delivered);
  for (std::size_t i = 0; i < a.updates.size(); i += 997)
    EXPECT_EQ(mrt::record_timestamp(a.updates[i]), mrt::record_timestamp(b.updates[i]));
}

LongLived2024Spec short_longlived_spec() {
  LongLived2024Spec spec;
  spec.monitor_until = utc(2024, 7, 1);  // June only
  return spec;
}

TEST(LongLivedScenario, AnecdotePrefixesAreCorrect) {
  const auto out = run_longlived2024(short_longlived_spec());
  EXPECT_EQ(out.resurrected_prefix.to_string(), "2a0d:3dc1:1851::/48");
  EXPECT_EQ(out.impactful_prefix.to_string(), "2a0d:3dc1:2233::/48");
  EXPECT_EQ(out.longest_prefix.to_string(), "2a0d:3dc1:163::/48");
  EXPECT_EQ(out.rrc25_noisy_routers.size(), 3u);
  EXPECT_GT(out.studied_announcements, 1600);
  EXPECT_LT(out.studied_announcements, 1760);
  // The update and RIB archives' bytes are pinned.
  EXPECT_EQ(out.updates.size(), 471299u);
  EXPECT_EQ(archive_digest(out.updates), 0x9997171de123e230ull);
  EXPECT_EQ(out.rib_dumps.size(), 9121u);
  EXPECT_EQ(archive_digest(out.rib_dumps), 0x4fdfd8baf356b584ull);
}

TEST(LongLivedScenario, ImpactfulOutbreakDetectedWithRootCause) {
  const auto out = run_longlived2024(short_longlived_spec());
  zombie::LongLivedConfig config;
  for (const auto& peer : out.noisy_peers) config.excluded_peers.insert(peer);
  zombie::LongLivedZombieDetector detector{config};
  const auto result = detector.detect(out.updates, out.events, 180 * kMinute);

  const zombie::ZombieOutbreak* impactful = nullptr;
  for (const auto& outbreak : result.outbreaks)
    if (outbreak.prefix == out.impactful_prefix) impactful = &outbreak;
  ASSERT_NE(impactful, nullptr);
  EXPECT_GT(impactful->peer_as_count(), 5);
  const auto cause = zombie::infer_root_cause(*impactful);
  ASSERT_TRUE(cause.suspect.has_value());
  EXPECT_EQ(*cause.suspect, Cast::kCoreBackbone);
  EXPECT_EQ(cause.common_subpath(), "33891 25091 8298 210312");
}

TEST(LongLivedScenario, TwoNoisyRoutersOfSameAsAreIdentical) {
  const auto out = run_longlived2024(short_longlived_spec());
  zombie::LongLivedZombieDetector detector{zombie::LongLivedConfig{}};
  const auto result = detector.detect(out.updates, out.events, 90 * kMinute);
  int a = 0, b = 0;
  for (const auto& outbreak : result.outbreaks) {
    for (const auto& route : outbreak.routes) {
      if (route.peer == out.rrc25_noisy_routers[0]) ++a;
      if (route.peer == out.rrc25_noisy_routers[1]) ++b;
    }
  }
  EXPECT_GT(a, 50);
  EXPECT_EQ(a, b) << "the two AS211509 transports must report identical stuck sets";
}

TEST(LongLivedScenario, NoisyFilterDiscoversInjectedSessions) {
  const auto out = run_longlived2024(short_longlived_spec());
  zombie::LongLivedZombieDetector detector{zombie::LongLivedConfig{}};
  const auto result = detector.detect(out.updates, out.events, 90 * kMinute);
  std::vector<zombie::ZombieRoute> routes;
  for (const auto& outbreak : result.outbreaks)
    for (const auto& route : outbreak.routes) routes.push_back(route);
  zombie::NoisyPeerFilter filter;
  const auto detected =
      filter.noisy_peer_keys(routes, out.all_peers, out.studied_announcements);
  EXPECT_EQ(detected, out.noisy_peers);
}

TEST(LongLivedScenario, Fig2SweepIsPinnedAndMatchesDetect) {
  // The full default spec (seed 20240604): the archive behind
  // EXPERIMENTS.md's Fig. 2 values, pinned here as (outbreaks, routes)
  // per threshold, 90...180 min in 10-min steps.
  const auto out = run_longlived2024(LongLived2024Spec{});
  std::vector<netbase::Duration> thresholds;
  for (int minutes = 90; minutes <= 180; minutes += 10) thresholds.push_back(minutes * kMinute);
  using Counts = std::vector<std::pair<int, int>>;
  const Counts all_peers{{396, 648}, {381, 629}, {367, 606}, {351, 585}, {341, 564},
                         {330, 549}, {311, 520}, {306, 510}, {308, 515}, {307, 511}};
  const Counts noisy_excluded{{125, 173}, {107, 154}, {92, 139}, {77, 122}, {66, 111},
                              {58, 102},  {39, 78},   {39, 78}, {42, 85},  {42, 85}};
  zombie::LongLivedConfig clean;
  for (const auto& peer : out.noisy_peers) clean.excluded_peers.insert(peer);

  const auto check = [&](const zombie::LongLivedConfig& config, const Counts& expected,
                         const char* line) {
    SCOPED_TRACE(line);
    const zombie::LongLivedZombieDetector detector{config};
    const auto sweep = detector.sweep(out.updates, out.events, thresholds);
    ASSERT_EQ(sweep.size(), expected.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      SCOPED_TRACE(thresholds[i] / kMinute);
      EXPECT_EQ(sweep[i].threshold, thresholds[i]);
      EXPECT_EQ(sweep[i].outbreaks, expected[i].first);
      EXPECT_EQ(sweep[i].routes, expected[i].second);
      const auto result = detector.detect(out.updates, out.events, thresholds[i]);
      EXPECT_EQ(result.total_announcements, 1722);
      EXPECT_EQ(sweep[i].outbreaks, static_cast<int>(result.outbreaks.size()));
      EXPECT_EQ(sweep[i].routes, result.route_count());
      EXPECT_DOUBLE_EQ(sweep[i].announcement_fraction, result.outbreak_fraction());
    }
  };
  check(zombie::LongLivedConfig{}, all_peers, "all peers");
  check(clean, noisy_excluded, "noisy peers excluded");
}

TEST(LongLivedScenario, RibDumpsCoverJune) {
  const auto out = run_longlived2024(short_longlived_spec());
  int tables = 0;
  for (const auto& record : out.rib_dumps)
    if (std::holds_alternative<mrt::PeerIndexTable>(record)) ++tables;
  // 27 days x 3 dumps x 2 collectors.
  EXPECT_GT(tables, 150);
}

}  // namespace
}  // namespace zombiescope::scenarios
