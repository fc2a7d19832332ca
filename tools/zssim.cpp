// zssim — generates MRT archives from the calibrated scenarios, so the
// zsdetect CLI (and any MRT consumer) has realistic data to chew on.
//
//   zssim ris2018|ris2017oct|ris2017mar|longlived2024 [output-prefix]
//         [--metrics-out FILE] [--trace-out FILE] [--metrics-format prom|json]
//         [--journal-out FILE] [--journal-format ndjson|bin]
//         [--journal-categories LIST] [--http-port N] [--profile-out FILE]
//         [--heap-out FILE] [--causal-sample-rate R]
//
// Writes <prefix>.updates.mrt (and <prefix>.ribs.mrt for
// longlived2024). Defaults the prefix to the scenario name.
// --metrics-out snapshots the telemetry registry after the run;
// --trace-out dumps the per-stage span tree; --journal-out records the
// fault-injection / collector event journal (read it with zsreport;
// the `propagation` category feeds zsroot); --http-port serves
// /metrics, /healthz, /spans, /journal/tail, /causal, /profile and
// /heap live during the simulation; --profile-out samples the whole
// run with zsprof and writes folded stacks (flamegraph-ready) there;
// --heap-out profiles allocations with zsheap and writes the
// zsheap-v1 JSON report (per-span bytes, top sites) there;
// --causal-sample-rate sets the probability that each *announcement*
// wave is causally traced (withdrawals are always traced; default
// 0.01) (see DESIGN.md, "Observability").

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "mrt/codec.hpp"
#include "obs/build_info.hpp"
#include "obs/causal.hpp"
#include "obs/export.hpp"
#include "obs/heap.hpp"
#include "obs/http.hpp"
#include "obs/journal.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"
#include "scenarios/longlived2024.hpp"
#include "scenarios/ris_replication.hpp"

using namespace zombiescope;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s ris2018|ris2017oct|ris2017mar|longlived2024 [output-prefix]\n"
               "          [--metrics-out FILE] [--trace-out FILE]\n"
               "          [--metrics-format prom|json] [--journal-out FILE]\n"
               "          [--journal-format ndjson|bin] [--journal-categories LIST]\n"
               "          [--http-port N] [--tsdb-cadence-ms N (0 disables)]\n"
               "          [--profile-out FILE] [--heap-out FILE]\n"
               "          [--causal-sample-rate R]\n"
               "          [--version]\n",
               argv0);
  std::exit(2);
}

int run_scenario(const std::string& which, const std::string& prefix) {
  if (which == "longlived2024") {
    scenarios::LongLived2024Spec spec;
    std::fprintf(stderr, "simulating the 2024 beacon experiment (~1 year of RIB dumps)...\n");
    const auto out = scenarios::run_longlived2024(spec);
    {
      obs::ScopedSpan write_span("zssim.write_mrt");
      mrt::write_file(prefix + ".updates.mrt", out.updates);
      mrt::write_file(prefix + ".ribs.mrt", out.rib_dumps);
    }
    std::printf("wrote %s.updates.mrt (%zu records) and %s.ribs.mrt (%zu records)\n",
                prefix.c_str(), out.updates.size(), prefix.c_str(), out.rib_dumps.size());
    std::printf("detect with:\n  zsdetect --updates %s.updates.mrt --ribs %s.ribs.mrt \\\n"
                "           --schedule fifteen --start 2024-06-10 --end 2024-06-23 "
                "--filter-noisy\n",
                prefix.c_str(), prefix.c_str());
    return 0;
  }

  scenarios::RisPeriodSpec spec;
  if (which == "ris2018") spec = scenarios::period_2018jul();
  else if (which == "ris2017oct") spec = scenarios::period_2017oct();
  else if (which == "ris2017mar") spec = scenarios::period_2017mar();
  else {
    std::fprintf(stderr, "error: unknown scenario '%s'\n", which.c_str());
    return 2;
  }
  std::fprintf(stderr, "simulating RIS period %s...\n", spec.label.c_str());
  const auto out = scenarios::run_ris_period(spec);
  {
    obs::ScopedSpan write_span("zssim.write_mrt");
    mrt::write_file(prefix + ".updates.mrt", out.updates);
  }
  std::printf("wrote %s.updates.mrt (%zu records)\n", prefix.c_str(), out.updates.size());
  std::printf("detect with:\n  zsdetect --updates %s.updates.mrt --schedule ris \\\n"
              "           --start %s --end %s --filter-noisy --root-cause\n",
              prefix.c_str(), netbase::format_date(spec.start).c_str(),
              netbase::format_date(spec.end).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--version") {
      std::puts(obs::identity_line("zssim").c_str());
      return 0;
    }
  }
  std::vector<std::string> positional;
  std::string metrics_out;
  std::string trace_out;
  obs::Format metrics_format = obs::Format::kJson;
  std::string journal_out;
  obs::JournalFormat journal_format = obs::JournalFormat::kNdjson;
  std::uint32_t journal_categories = obs::kCatAll;
  int http_port = -1;  // -1 = no HTTP server
  long tsdb_cadence_ms = 1000;  // 0 disables the /tsdb store
  std::string profile_out;
  std::string heap_out;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out") metrics_out = need_value(i);
    else if (arg == "--trace-out") trace_out = need_value(i);
    else if (arg == "--metrics-format") {
      const auto parsed = obs::parse_format(need_value(i));
      if (!parsed.has_value()) usage(argv[0]);
      metrics_format = *parsed;
    } else if (arg == "--journal-out") journal_out = need_value(i);
    else if (arg == "--journal-format") {
      const auto parsed = obs::parse_journal_format(need_value(i));
      if (!parsed.has_value()) usage(argv[0]);
      journal_format = *parsed;
    } else if (arg == "--journal-categories") {
      const auto parsed = obs::parse_categories(need_value(i));
      if (!parsed.has_value()) usage(argv[0]);
      journal_categories = *parsed;
    } else if (arg == "--http-port") {
      http_port = std::stoi(need_value(i));
    } else if (arg == "--tsdb-cadence-ms") {
      tsdb_cadence_ms = std::stol(need_value(i));
    } else if (arg == "--profile-out") {
      profile_out = need_value(i);
    } else if (arg == "--heap-out") {
      heap_out = need_value(i);
    } else if (arg == "--causal-sample-rate") {
      try {
        obs::causal_set_announce_sample_rate(std::stod(need_value(i)));
      } catch (const std::exception&) {
        usage(argv[0]);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty() || positional.size() > 2) usage(argv[0]);
  const std::string which = positional[0];
  const std::string prefix = positional.size() > 1 ? positional[1] : which;

  // Covers the whole run (simulation + MRT writes); the folded stacks
  // land in the file when main returns.
  obs::ScopedProfileSession profile(profile_out);
  obs::ScopedHeapSession heap(heap_out);

  obs::Journal& journal = obs::Journal::global();
  if (!journal_out.empty()) {
    try {
      journal.attach_writer(
          std::make_unique<obs::JournalWriter>(journal_out, journal_format));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    journal.set_enabled_categories(journal_categories);
    journal.set_autopump(true);
  }
  // Retained metrics history for the duration of the run; only worth
  // sampling when the HTTP port (the only way to query it) is up.
  obs::TsdbConfig tsdb_config;
  tsdb_config.cadence_ms = tsdb_cadence_ms > 0 ? tsdb_cadence_ms : 1000;
  obs::Tsdb tsdb(tsdb_config);
  obs::HttpServer http;
  if (http_port >= 0) {
    const bool tsdb_on = tsdb_cadence_ms > 0;
    if (tsdb_on) tsdb.attach_http(http);
    if (!http.start(static_cast<std::uint16_t>(http_port))) {
      std::fprintf(stderr, "error: cannot bind HTTP port %d\n", http_port);
      return 1;
    }
    if (tsdb_on) tsdb.start();
    std::fprintf(stderr, "serving http://127.0.0.1:%u/metrics\n", http.port());
  }

  int rc = 0;
  {
    // Root of the span tree; every scenario stage nests under it.
    obs::ScopedSpan root("zssim.run");
    rc = run_scenario(which, prefix);
  }

  try {
    if (!metrics_out.empty()) obs::write_metrics_file(metrics_out, metrics_format);
    if (!trace_out.empty()) obs::write_trace_file(trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!journal_out.empty()) {
    journal.close_writer();
    std::fprintf(stderr, "journal: %llu event(s) written to %s (%llu dropped)\n",
                 static_cast<unsigned long long>(journal.emitted()), journal_out.c_str(),
                 static_cast<unsigned long long>(journal.dropped()));
  }
  http.stop();
  tsdb.stop();
  return rc;
}
