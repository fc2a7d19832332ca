// zsdetect — the command-line BGP zombie detector.
//
// Consumes MRT archives (updates, and optionally TABLE_DUMP_V2 RIB
// dumps) plus a beacon schedule description, and reports zombie
// outbreaks: the revised methodology of the paper as one tool.
//
//   zsdetect --updates updates.mrt --schedule ris
//            --start 2018-07-19 --end 2018-09-01 [options]
//
// Schedules:
//   ris        classic RIPE RIS beacons (4h cycle, 2h up, Aggregator clock)
//   daily      the paper's approach 1 (96 IPv6 /48s per day, 24h recycle)
//   fifteen    the paper's approach 2 (15-day recycle, collision rule applied)
//
// Options:
//   --ribs FILE          RIB-dump archive: adds lifespan & resurrection report
//   --threshold MIN      stuck threshold in minutes (default 90)
//   --filter-noisy       detect noisy peers statistically and exclude them
//   --no-dedup           report with double-counting (baseline methodology)
//   --root-cause         run palm-tree inference per outbreak
//   --max-outbreaks N    print at most N outbreaks (default 20)
//
// plus the telemetry options every long-running tool shares
// (obs/session.hpp): --metrics-out, --trace-out, --journal-out,
// --journal-categories, --http-port, --profile-out, --heap-out and
// --version. A missing or malformed value prints usage and exits 2.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "beacon/schedule.hpp"
#include "mrt/codec.hpp"
#include "obs/journal.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "zombie/interval_detector.hpp"
#include "zombie/longlived.hpp"
#include "zombie/noisy.hpp"
#include "zombie/rootcause.hpp"
#include "zombie/state.hpp"

using namespace zombiescope;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --updates FILE --schedule ris|daily|fifteen --start YYYY-MM-DD\n"
               "          --end YYYY-MM-DD [--ribs FILE] [--threshold MINUTES]\n"
               "          [--filter-noisy] [--no-dedup] [--root-cause] [--max-outbreaks N]\n%s",
               argv0, obs::Session::kUsage);
  std::exit(2);
}

struct Options {
  std::string updates_path;
  std::string ribs_path;
  std::string schedule = "ris";
  netbase::TimePoint start = 0;
  netbase::TimePoint end = 0;
  std::vector<beacon::BeaconEvent> events;
  netbase::Duration threshold = 90 * netbase::kMinute;
  bool filter_noisy = false;
  bool dedup = true;
  bool root_cause = false;
  int max_outbreaks = 20;
};

Options parse_options(obs::Session& session, int argc, char** argv) {
  Options opt;
  const bool parsed = session.parse(argc, argv, [&](const std::string& arg, const auto& value) {
    if (arg == "--updates") opt.updates_path = value();
    else if (arg == "--ribs") opt.ribs_path = value();
    else if (arg == "--schedule") opt.schedule = value();
    else if (arg == "--start") opt.start = netbase::parse_date(value()).value();
    else if (arg == "--end") opt.end = netbase::parse_date(value()).value();
    else if (arg == "--threshold") opt.threshold = std::stol(value()) * netbase::kMinute;
    else if (arg == "--filter-noisy") opt.filter_noisy = true;
    else if (arg == "--no-dedup") opt.dedup = false;
    else if (arg == "--root-cause") opt.root_cause = true;
    else if (arg == "--max-outbreaks") opt.max_outbreaks = std::stoi(value());
    else return false;
    return true;
  });
  if (!parsed || opt.updates_path.empty() || opt.start == 0 || opt.end == 0 ||
      opt.end <= opt.start)
    usage(argv[0]);
  auto events = beacon::schedule_events(opt.schedule, opt.start, opt.end);
  if (!events.has_value()) {
    std::fprintf(stderr, "error: unknown schedule '%s'\n", opt.schedule.c_str());
    usage(argv[0]);
  }
  opt.events = std::move(*events);
  return opt;
}

void print_outbreak(const zombie::ZombieOutbreak& outbreak, bool root_cause) {
  std::printf("%s  %s  %d peer router(s) in %d AS(es)\n",
              netbase::format_utc(outbreak.interval_start).c_str(),
              outbreak.prefix.to_string().c_str(), outbreak.peer_router_count(),
              outbreak.peer_as_count());
  for (const auto& route : outbreak.routes)
    std::printf("    %-42s [%s]\n", zombie::to_string(route.peer).c_str(),
                route.path.to_string().c_str());
  if (root_cause) {
    const auto cause = zombie::infer_root_cause(outbreak);
    std::printf("    suspect: AS%u (chain '%s')%s%s\n", cause.suspect.value_or(0),
                cause.common_subpath().c_str(), cause.ambiguous ? " [ambiguous]" : "",
                cause.single_route ? " [single route]" : "");
  }
}

int run(const Options& opt) {
  std::vector<mrt::MrtRecord> updates;
  try {
    obs::ScopedSpan load_span("zsdetect.load");
    updates = mrt::read_file(opt.updates_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const auto& events = opt.events;
  std::fprintf(stderr, "loaded %zu records, %zu beacon events [%s .. %s]\n", updates.size(),
               events.size(), netbase::format_date(opt.start).c_str(),
               netbase::format_date(opt.end).c_str());

  // Pass 1: detect with every peer, to compute noisy-peer statistics.
  // The statistics run on *deduplicated* routes: a peer sitting behind
  // a long in-network stall accumulates duplicates that would drown
  // the per-session signal (the paper computes its 1.58 % background
  // after the Aggregator filter too).
  std::set<zombie::PeerKey> excluded;
  int studied_announcements = 0;
  obs::Journal& journal = obs::Journal::global();
  const std::uint32_t journal_mask = journal.enabled_categories();
  if (opt.filter_noisy) {
    // The statistics pass re-runs a detector whose declarations are
    // NOT what this tool reports; mask the detector category so the
    // journal carries exactly the reported zombie set (zsreport
    // reconstructs from kZombieDeclared events alone).
    journal.set_enabled_categories(journal_mask & ~obs::kCatDetector);
    zombie::StateTracker tracker;
    for (const auto& record : updates) tracker.apply(record);
    std::vector<zombie::ZombieRoute> routes;
    if (opt.schedule == "ris") {
      zombie::IntervalZombieDetector pass_detector{zombie::LongLivedConfig{}};
      const auto pass = pass_detector.detect(updates, events, opt.threshold);
      for (const auto& route : pass.routes)
        if (!route.duplicate) routes.push_back(route);
      studied_announcements = static_cast<int>(events.size());
    } else {
      zombie::LongLivedZombieDetector pass_detector{zombie::LongLivedConfig{}};
      const auto pass = pass_detector.detect(updates, events, opt.threshold);
      for (const auto& outbreak : pass.outbreaks)
        for (const auto& route : outbreak.routes) routes.push_back(route);
      studied_announcements = pass.total_announcements;
    }
    zombie::NoisyPeerFilter filter;
    excluded = filter.noisy_peer_keys(routes, tracker.peers(), studied_announcements);
    journal.set_enabled_categories(journal_mask);
    for (const auto& peer : excluded) {
      std::fprintf(stderr, "noisy peer excluded: %s\n", zombie::to_string(peer).c_str());
      if (journal.enabled(obs::kCatNoise)) {
        obs::JournalEvent ev;
        ev.type = obs::JournalEventType::kNoisyPeerExcluded;
        ev.time = opt.start;
        ev.has_peer = true;
        ev.peer_asn = peer.asn;
        ev.peer_address = peer.address;
        journal.emit<obs::kCatNoise>(ev);
      }
    }
  }

  zombie::LongLivedConfig config;
  config.excluded_peers = excluded;
  const auto run_meta = [&](std::int64_t studied) {
    if (!journal.enabled(obs::kCatRun)) return;
    obs::JournalEvent meta;
    meta.type = obs::JournalEventType::kRunMeta;
    meta.time = opt.start;
    meta.a = studied;
    meta.b = opt.threshold;
    meta.c = opt.end;
    journal.emit<obs::kCatRun>(meta);
  };

  // One detector pass answers the report: the interval methodology,
  // with its Aggregator-clock dedup, for RIS-style beacons; the
  // long-lived one otherwise.
  std::vector<zombie::ZombieOutbreak> outbreaks;
  if (opt.schedule == "ris") {
    run_meta(static_cast<std::int64_t>(events.size()));
    auto result = zombie::IntervalZombieDetector{config}.detect(updates, events, opt.threshold);
    outbreaks = std::move(opt.dedup ? result.outbreaks_deduplicated
                                    : result.outbreaks_with_duplicates);
    std::printf("== %zu zombie outbreak(s) (%s double-counting), %d visible <beacon,interval>\n",
                outbreaks.size(), opt.dedup ? "without" : "with", result.visible_prefixes);
  } else {
    auto result = zombie::LongLivedZombieDetector{config}.detect(updates, events, opt.threshold);
    run_meta(result.total_announcements);
    std::printf("== %zu zombie outbreak(s) out of %d studied announcements (%.2f%%)\n",
                result.outbreaks.size(), result.total_announcements,
                100.0 * result.outbreak_fraction());
    outbreaks = std::move(result.outbreaks);
  }
  int shown = 0;
  for (const auto& outbreak : outbreaks) {
    if (++shown > opt.max_outbreaks) {
      std::printf("... (%zu more)\n", outbreaks.size() - static_cast<std::size_t>(shown - 1));
      break;
    }
    print_outbreak(outbreak, opt.root_cause);
  }

  // Optional lifespan report from RIB dumps.
  if (!opt.ribs_path.empty()) {
    std::vector<mrt::MrtRecord> ribs;
    try {
      obs::ScopedSpan load_span("zsdetect.load_ribs");
      ribs = mrt::read_file(opt.ribs_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    zombie::LifespanAnalyzer analyzer{config};
    const auto lifespans = analyzer.analyze(ribs, events, 8 * netbase::kHour);
    std::printf("\n== lifespans from %zu RIB records (>= 1 day):\n", ribs.size());
    for (const auto& lifespan : lifespans) {
      if (lifespan.duration() < netbase::kDay) continue;
      std::printf("%s stuck %s (withdrawn %s, last seen %s), %zu resurrection(s)\n",
                  lifespan.prefix.to_string().c_str(),
                  netbase::format_duration(lifespan.duration()).c_str(),
                  netbase::format_date(lifespan.withdraw_time).c_str(),
                  netbase::format_date(lifespan.last_seen).c_str(),
                  lifespan.resurrections.size());
      for (const auto& res : lifespan.resurrections)
        std::printf("    resurrected %s at %s (invisible since %s)\n",
                    netbase::format_date(res.reappeared_at).c_str(),
                    zombie::to_string(res.peer).c_str(),
                    netbase::format_date(res.vanished_at).c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::Session session("zsdetect", obs::Session::Kind::kBatch);
  const Options opt = parse_options(session, argc, argv);
  if (!session.start() || !session.serve("/metrics")) return 1;

  int rc = 0;
  {
    // Root of the span tree; load and detector-pass spans nest under it.
    obs::ScopedSpan root("zsdetect.run");
    rc = run(opt);
  }
  return session.finish() ? rc : 1;
}
