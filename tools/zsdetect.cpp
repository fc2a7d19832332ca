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
//   --metrics-out FILE   write a telemetry snapshot after the run
//   --metrics-format F   snapshot format: prom | json (default json)
//   --trace-out FILE     write the per-stage span tree as JSON
//   --journal-out FILE   record the zombie-lifecycle event journal
//                        (analyze it with zsreport)
//   --journal-format F   journal format: ndjson | bin (default ndjson)
//   --journal-categories C  comma list: run,state,detector,noise,
//                        lifespan,collector,fault,propagation,all
//                        (default all)
//   --http-port N        serve /metrics /healthz /spans /journal/tail
//                        /causal /profile /heap on port N while
//                        running (0 = ephemeral)
//   --profile-out FILE   sample the whole run with zsprof and write
//                        folded stacks (flamegraph-ready) to FILE
//   --heap-out FILE      profile allocations with zsheap and write the
//                        zsheap-v1 JSON report (per-span bytes, top
//                        sampled sites) to FILE

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "beacon/schedule.hpp"
#include "obs/build_info.hpp"
#include "mrt/codec.hpp"
#include "obs/export.hpp"
#include "obs/heap.hpp"
#include "obs/http.hpp"
#include "obs/journal.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"
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
               "          [--filter-noisy] [--no-dedup] [--root-cause] [--max-outbreaks N]\n"
               "          [--metrics-out FILE] [--metrics-format prom|json]\n"
               "          [--trace-out FILE] [--journal-out FILE]\n"
               "          [--journal-format ndjson|bin] [--journal-categories LIST]\n"
               "          [--http-port N] [--tsdb-cadence-ms N (0 disables)]\n"
               "          [--profile-out FILE] [--heap-out FILE]\n"
               "          [--version]\n",
               argv0);
  std::exit(2);
}

netbase::TimePoint parse_date(const std::string& text) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3) {
    std::fprintf(stderr, "error: bad date '%s' (want YYYY-MM-DD)\n", text.c_str());
    std::exit(2);
  }
  return netbase::utc(y, m, d);
}

struct Options {
  std::string updates_path;
  std::string ribs_path;
  std::string schedule = "ris";
  netbase::TimePoint start = 0;
  netbase::TimePoint end = 0;
  netbase::Duration threshold = 90 * netbase::kMinute;
  bool filter_noisy = false;
  bool dedup = true;
  bool root_cause = false;
  int max_outbreaks = 20;
  std::string metrics_out;
  std::string trace_out;
  obs::Format metrics_format = obs::Format::kJson;
  std::string journal_out;
  obs::JournalFormat journal_format = obs::JournalFormat::kNdjson;
  std::uint32_t journal_categories = obs::kCatAll;
  int http_port = -1;           // -1 = no HTTP server
  long tsdb_cadence_ms = 1000;  // 0 disables the /tsdb store
  std::string profile_out;
  std::string heap_out;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--updates") opt.updates_path = need_value(i);
    else if (arg == "--ribs") opt.ribs_path = need_value(i);
    else if (arg == "--schedule") opt.schedule = need_value(i);
    else if (arg == "--start") opt.start = parse_date(need_value(i));
    else if (arg == "--end") opt.end = parse_date(need_value(i));
    else if (arg == "--threshold")
      opt.threshold = std::stol(need_value(i)) * netbase::kMinute;
    else if (arg == "--filter-noisy") opt.filter_noisy = true;
    else if (arg == "--no-dedup") opt.dedup = false;
    else if (arg == "--root-cause") opt.root_cause = true;
    else if (arg == "--max-outbreaks") opt.max_outbreaks = std::stoi(need_value(i));
    else if (arg == "--metrics-out") opt.metrics_out = need_value(i);
    else if (arg == "--trace-out") opt.trace_out = need_value(i);
    else if (arg == "--metrics-format") {
      const auto parsed = obs::parse_format(need_value(i));
      if (!parsed.has_value()) usage(argv[0]);
      opt.metrics_format = *parsed;
    } else if (arg == "--journal-out") opt.journal_out = need_value(i);
    else if (arg == "--journal-format") {
      const auto parsed = obs::parse_journal_format(need_value(i));
      if (!parsed.has_value()) usage(argv[0]);
      opt.journal_format = *parsed;
    } else if (arg == "--journal-categories") {
      const auto parsed = obs::parse_categories(need_value(i));
      if (!parsed.has_value()) usage(argv[0]);
      opt.journal_categories = *parsed;
    } else if (arg == "--http-port") opt.http_port = std::stoi(need_value(i));
    else if (arg == "--tsdb-cadence-ms") opt.tsdb_cadence_ms = std::stol(need_value(i));
    else if (arg == "--profile-out") opt.profile_out = need_value(i);
    else if (arg == "--heap-out") opt.heap_out = need_value(i);
    else usage(argv[0]);
  }
  if (opt.updates_path.empty() || opt.start == 0 || opt.end == 0 || opt.end <= opt.start)
    usage(argv[0]);
  return opt;
}

std::vector<beacon::BeaconEvent> make_events(const Options& opt) {
  if (opt.schedule == "ris")
    return beacon::RisBeaconSchedule::classic().events(opt.start, opt.end);
  if (opt.schedule == "daily")
    return beacon::LongLivedBeaconSchedule::paper_deployment(
               beacon::LongLivedBeaconSchedule::Approach::kDaily)
        .events(opt.start, opt.end);
  if (opt.schedule == "fifteen")
    return beacon::LongLivedBeaconSchedule::paper_deployment(
               beacon::LongLivedBeaconSchedule::Approach::kFifteenDay)
        .events(opt.start, opt.end);
  std::fprintf(stderr, "error: unknown schedule '%s'\n", opt.schedule.c_str());
  std::exit(2);
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
  const auto events = make_events(opt);
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
      zombie::IntervalDetectorConfig pass_config;
      pass_config.threshold = opt.threshold;
      zombie::IntervalZombieDetector pass_detector(pass_config);
      const auto pass = pass_detector.detect(updates, events);
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
  zombie::LongLivedZombieDetector detector{config};
  // Under the ris schedule the interval methodology below is what gets
  // reported; mask this long-lived pass out of the journal there too.
  if (opt.schedule == "ris")
    journal.set_enabled_categories(journal_mask & ~obs::kCatDetector);
  auto result = detector.detect(updates, events, opt.threshold);
  journal.set_enabled_categories(journal_mask);

  if (journal.enabled(obs::kCatRun)) {
    obs::JournalEvent meta;
    meta.type = obs::JournalEventType::kRunMeta;
    meta.time = opt.start;
    meta.a = opt.schedule == "ris" ? static_cast<std::int64_t>(events.size())
                                   : result.total_announcements;
    meta.b = opt.threshold;
    meta.c = opt.end;
    journal.emit<obs::kCatRun>(meta);
  }

  // Aggregator-clock dedup (meaningful for RIS-style beacons): run the
  // interval methodology when requested.
  if (opt.schedule == "ris") {
    zombie::IntervalDetectorConfig interval_config;
    interval_config.threshold = opt.threshold;
    interval_config.excluded_peers = excluded;
    zombie::IntervalZombieDetector interval_detector(interval_config);
    const auto interval_result = interval_detector.detect(updates, events);
    const auto& outbreaks = opt.dedup ? interval_result.outbreaks_deduplicated
                                      : interval_result.outbreaks_with_duplicates;
    std::printf("== %zu zombie outbreak(s) (%s double-counting), %d visible <beacon,interval>\n",
                outbreaks.size(), opt.dedup ? "without" : "with",
                interval_result.visible_prefixes);
    int shown = 0;
    for (const auto& outbreak : outbreaks) {
      if (++shown > opt.max_outbreaks) {
        std::printf("... (%zu more)\n", outbreaks.size() - static_cast<std::size_t>(shown - 1));
        break;
      }
      print_outbreak(outbreak, opt.root_cause);
    }
  } else {
    std::printf("== %zu zombie outbreak(s) out of %d studied announcements (%.2f%%)\n",
                result.outbreaks.size(), result.total_announcements,
                100.0 * result.outbreak_fraction());
    int shown = 0;
    for (const auto& outbreak : result.outbreaks) {
      if (++shown > opt.max_outbreaks) {
        std::printf("... (%zu more)\n",
                    result.outbreaks.size() - static_cast<std::size_t>(shown - 1));
        break;
      }
      print_outbreak(outbreak, opt.root_cause);
    }
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
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--version") {
      std::puts(obs::identity_line("zsdetect").c_str());
      return 0;
    }
  }
  const Options opt = parse_options(argc, argv);

  // Covers the whole run (MRT load + detector passes + reporting); the
  // folded stacks land in the file when main returns.
  obs::ScopedProfileSession profile(opt.profile_out);
  obs::ScopedHeapSession heap(opt.heap_out);

  obs::Journal& journal = obs::Journal::global();
  if (!opt.journal_out.empty()) {
    try {
      journal.attach_writer(
          std::make_unique<obs::JournalWriter>(opt.journal_out, opt.journal_format));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    journal.set_enabled_categories(opt.journal_categories);
    journal.set_autopump(true);
  }
  // Retained metrics history for the duration of the run; only worth
  // sampling when the HTTP port (the only way to query it) is up.
  obs::TsdbConfig tsdb_config;
  tsdb_config.cadence_ms = opt.tsdb_cadence_ms > 0 ? opt.tsdb_cadence_ms : 1000;
  obs::Tsdb tsdb(tsdb_config);
  obs::HttpServer http;
  if (opt.http_port >= 0) {
    const bool tsdb_on = opt.tsdb_cadence_ms > 0;
    if (tsdb_on) tsdb.attach_http(http);
    if (!http.start(static_cast<std::uint16_t>(opt.http_port))) {
      std::fprintf(stderr, "error: cannot bind HTTP port %d\n", opt.http_port);
      return 1;
    }
    if (tsdb_on) tsdb.start();
    std::fprintf(stderr, "serving http://127.0.0.1:%u/metrics\n", http.port());
  }

  int rc = 0;
  {
    // Root of the span tree; load and detector-pass spans nest under it.
    obs::ScopedSpan root("zsdetect.run");
    rc = run(opt);
  }

  try {
    if (!opt.metrics_out.empty()) obs::write_metrics_file(opt.metrics_out, opt.metrics_format);
    if (!opt.trace_out.empty()) obs::write_trace_file(opt.trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!opt.journal_out.empty()) {
    journal.close_writer();
    std::fprintf(stderr, "journal: %llu event(s) written to %s (%llu dropped)\n",
                 static_cast<unsigned long long>(journal.emitted()),
                 opt.journal_out.c_str(),
                 static_cast<unsigned long long>(journal.dropped()));
  }
  http.stop();
  tsdb.stop();
  return rc;
}
