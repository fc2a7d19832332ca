// zsreport — forensic reports from a zombie flight-recorder journal.
//
// Reads the NDJSON journal zsdetect, zssim or zslived wrote
// (--journal-out) and reconstructs what the run decided:
//
//   * a run summary (event counts per type, covered time range);
//   * the zombie set: every (prefix, peer) the detector declared, with
//     declare/clear times and the threshold used;
//   * per-peer zombie probabilities (the paper's Table 4/5 view) when
//     the journal carries run metadata;
//   * resurrection chains per prefix (the Fig. 4 view);
//   * with --peers, the peer feed-quality history the live zspeerq
//     classifier journaled (noisy enter/exit with the probability and
//     median that drove each flip, silence episodes, final noisy set);
//   * with --prefix, the full chronological timeline of one prefix.
//
//   zsreport JOURNAL [--prefix P] [--peers] [--json] [--max-rows N]
//            [--profile-out FILE]
//
// JOURNAL may be `-` to read the journal from stdin, so a pipeline
// like `zsdetect --journal-out /dev/stdout ... | zsreport -` works.
// --profile-out samples the report build with zsprof and writes folded
// stacks to FILE (useful on multi-gigabyte journals).

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netbase/time.hpp"
#include "obs/build_info.hpp"
#include "obs/journal.hpp"
#include "obs/prof.hpp"

using namespace zombiescope;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s JOURNAL [--prefix PREFIX] [--peers] [--json] [--max-rows N]\n"
               "          [--profile-out FILE] [--version]\n"
               "       (JOURNAL may be '-' to read from stdin)\n",
               argv0);
  std::exit(2);
}

struct Options {
  std::string journal_path;
  std::optional<netbase::Prefix> prefix;
  bool peers = false;
  bool json = false;
  int max_rows = 50;
  std::string profile_out;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--prefix") {
      const auto parsed = netbase::Prefix::try_parse(need_value(i));
      if (!parsed.has_value()) usage(argv[0]);
      opt.prefix = *parsed;
    } else if (arg == "--peers") {
      opt.peers = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--max-rows") {
      opt.max_rows = std::stoi(need_value(i));
    } else if (arg == "--profile-out") {
      opt.profile_out = need_value(i);
    } else if (arg == "-" && opt.journal_path.empty()) {
      opt.journal_path = arg;  // read the journal from stdin
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else if (opt.journal_path.empty()) {
      opt.journal_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.journal_path.empty()) usage(argv[0]);
  return opt;
}

std::string peer_label(const obs::JournalEvent& ev) {
  return ev.peer_address.to_string() + " (AS" + std::to_string(ev.peer_asn) + ")";
}

/// One reconstructed zombie: keyed by (prefix, peer, withdrawal) so a
/// prefix recycled across intervals yields distinct entries.
struct Zombie {
  netbase::Prefix prefix;
  std::uint32_t peer_asn = 0;
  netbase::IpAddress peer_address;
  netbase::TimePoint withdrawn_at = 0;
  netbase::TimePoint declared_at = 0;
  netbase::Duration threshold = 0;
  std::optional<netbase::TimePoint> cleared_at;
};

struct Report {
  std::vector<obs::JournalEvent> events;
  std::map<std::string, std::size_t> counts_by_type;
  netbase::TimePoint first_time = 0;
  netbase::TimePoint last_time = 0;
  std::optional<obs::JournalEvent> run_meta;
  std::vector<Zombie> zombies;
  // peer label -> zombie count (distinct declarations)
  std::map<std::string, std::size_t> zombies_by_peer;
  // prefix -> resurrection events, by reappearance time
  std::map<netbase::Prefix, std::vector<obs::JournalEvent>> resurrections;
  // peer label -> zspeerq classifier transitions in time order
  // (peer_noisy_enter/exit, peer_silent)
  std::map<std::string, std::vector<obs::JournalEvent>> peer_transitions;
  // peers noisy after the last journaled transition
  std::vector<std::string> noisy_final;
};

Report build_report(std::vector<obs::JournalEvent> events) {
  Report report;
  report.events = std::move(events);
  std::stable_sort(report.events.begin(), report.events.end(),
                   [](const auto& a, const auto& b) { return a.time < b.time; });

  std::map<std::tuple<netbase::Prefix, std::uint32_t, netbase::IpAddress,
                      netbase::TimePoint>,
           std::size_t>
      zombie_index;
  for (const auto& ev : report.events) {
    ++report.counts_by_type[std::string(obs::to_string(ev.type))];
    if (report.first_time == 0 || ev.time < report.first_time)
      report.first_time = ev.time;
    report.last_time = std::max(report.last_time, ev.time);

    switch (ev.type) {
      case obs::JournalEventType::kRunMeta:
        report.run_meta = ev;
        break;
      case obs::JournalEventType::kZombieDeclared: {
        const auto key = std::make_tuple(ev.prefix, ev.peer_asn, ev.peer_address,
                                         static_cast<netbase::TimePoint>(ev.b));
        if (zombie_index.contains(key)) break;  // idempotent re-declare
        zombie_index[key] = report.zombies.size();
        Zombie z;
        z.prefix = ev.prefix;
        z.peer_asn = ev.peer_asn;
        z.peer_address = ev.peer_address;
        z.withdrawn_at = ev.b;
        z.declared_at = ev.time;
        z.threshold = ev.a;
        report.zombies.push_back(z);
        ++report.zombies_by_peer[peer_label(ev)];
        break;
      }
      case obs::JournalEventType::kZombieCleared: {
        const auto key = std::make_tuple(ev.prefix, ev.peer_asn, ev.peer_address,
                                         static_cast<netbase::TimePoint>(ev.b));
        auto it = zombie_index.find(key);
        if (it != zombie_index.end() &&
            !report.zombies[it->second].cleared_at.has_value())
          report.zombies[it->second].cleared_at = ev.time;
        break;
      }
      case obs::JournalEventType::kResurrectionDetected:
        report.resurrections[ev.prefix].push_back(ev);
        break;
      case obs::JournalEventType::kPeerNoisyEnter:
      case obs::JournalEventType::kPeerNoisyExit:
      case obs::JournalEventType::kPeerSilent:
        report.peer_transitions[peer_label(ev)].push_back(ev);
        break;
      default:
        break;
    }
  }
  // Replay each peer's transitions (already time-ordered) to the final
  // classification — the offline reconstruction of GET /peers/noisy.
  for (const auto& [peer, transitions] : report.peer_transitions) {
    bool noisy = false;
    for (const auto& ev : transitions) {
      if (ev.type == obs::JournalEventType::kPeerNoisyEnter) noisy = true;
      if (ev.type == obs::JournalEventType::kPeerNoisyExit) noisy = false;
    }
    if (noisy) report.noisy_final.push_back(peer);
  }
  return report;
}

void print_text(const Report& report, const Options& opt) {
  std::printf("== journal: %zu event(s)", report.events.size());
  if (!report.events.empty())
    std::printf(" [%s .. %s]", netbase::format_utc(report.first_time).c_str(),
                netbase::format_utc(report.last_time).c_str());
  std::printf("\n");
  for (const auto& [name, count] : report.counts_by_type)
    std::printf("    %-28s %zu\n", name.c_str(), count);
  if (report.run_meta.has_value())
    std::printf("    run: %lld studied announcement(s), threshold %s\n",
                static_cast<long long>(report.run_meta->a),
                netbase::format_duration(report.run_meta->b).c_str());

  std::printf("\n== zombie set: %zu declared (prefix, peer) route(s)\n",
              report.zombies.size());
  int shown = 0;
  for (const auto& z : report.zombies) {
    if (++shown > opt.max_rows) {
      std::printf("... (%zu more)\n", report.zombies.size() - static_cast<std::size_t>(shown - 1));
      break;
    }
    std::printf("%s  %-22s %s (AS%u)  withdrawn %s, declared %s",
                netbase::format_utc(z.declared_at).c_str(),
                z.prefix.to_string().c_str(), z.peer_address.to_string().c_str(),
                z.peer_asn, netbase::format_utc(z.withdrawn_at).c_str(),
                netbase::format_duration(z.threshold).c_str());
    if (z.cleared_at.has_value())
      std::printf(" later, cleared %s", netbase::format_utc(*z.cleared_at).c_str());
    std::printf("\n");
  }

  if (!report.zombies_by_peer.empty()) {
    std::printf("\n== zombies per peer");
    const bool have_denominator =
        report.run_meta.has_value() && report.run_meta->a > 0;
    if (have_denominator)
      std::printf(" (probability over %lld studied announcements)",
                  static_cast<long long>(report.run_meta->a));
    std::printf("\n");
    for (const auto& [peer, count] : report.zombies_by_peer) {
      if (have_denominator)
        std::printf("    %-42s %6zu  %6.2f%%\n", peer.c_str(), count,
                    100.0 * static_cast<double>(count) /
                        static_cast<double>(report.run_meta->a));
      else
        std::printf("    %-42s %6zu\n", peer.c_str(), count);
    }
  }

  if (!report.resurrections.empty()) {
    std::printf("\n== resurrection chains\n");
    for (const auto& [prefix, chain] : report.resurrections) {
      std::printf("%s\n", prefix.to_string().c_str());
      for (const auto& ev : chain)
        std::printf("    vanished %s -> reappeared %s at %s\n",
                    netbase::format_utc(ev.a).c_str(),
                    netbase::format_utc(ev.b).c_str(), peer_label(ev).c_str());
    }
  }

  if (opt.peers) {
    std::printf("\n== peer feed quality: %zu peer(s) with journaled transitions",
                report.peer_transitions.size());
    std::printf(", %zu noisy at end\n", report.noisy_final.size());
    for (const auto& [peer, transitions] : report.peer_transitions) {
      std::printf("%s\n", peer.c_str());
      for (const auto& ev : transitions) {
        if (ev.type == obs::JournalEventType::kPeerSilent) {
          std::printf("    %s  silent (no update for %s, last seen %s)\n",
                      netbase::format_utc(ev.time).c_str(),
                      netbase::format_duration(ev.a).c_str(),
                      netbase::format_utc(ev.b).c_str());
        } else {
          std::printf("    %s  %-16s p=%.4f median=%.4f stuck=%lld\n",
                      netbase::format_utc(ev.time).c_str(),
                      ev.type == obs::JournalEventType::kPeerNoisyEnter
                          ? "noisy ENTER" : "noisy exit",
                      static_cast<double>(ev.a) * 1e-6,
                      static_cast<double>(ev.b) * 1e-6,
                      static_cast<long long>(ev.c));
        }
      }
    }
    if (!report.noisy_final.empty()) {
      std::printf("  final noisy set:\n");
      for (const auto& peer : report.noisy_final)
        std::printf("    %s\n", peer.c_str());
    }
  }

  if (opt.prefix.has_value()) {
    std::printf("\n== timeline for %s\n", opt.prefix->to_string().c_str());
    for (const auto& ev : report.events) {
      if (!ev.has_prefix || ev.prefix != *opt.prefix) continue;
      std::printf("%s  %-26s", netbase::format_utc(ev.time).c_str(),
                  std::string(obs::to_string(ev.type)).c_str());
      if (ev.has_peer) std::printf("  %s", peer_label(ev).c_str());
      std::printf("  a=%lld b=%lld c=%lld\n", static_cast<long long>(ev.a),
                  static_cast<long long>(ev.b), static_cast<long long>(ev.c));
    }
  }
}

void print_json(const Report& report, const Options& opt) {
  std::string out = "{\n  \"schema\": \"zsreport-v1\",\n";
  out += "  \"events\": " + std::to_string(report.events.size()) + ",\n";
  out += "  \"first_time\": " + std::to_string(report.first_time) + ",\n";
  out += "  \"last_time\": " + std::to_string(report.last_time) + ",\n";
  out += "  \"counts\": {";
  bool first = true;
  for (const auto& [name, count] : report.counts_by_type) {
    if (!first) out += ',';
    first = false;
    out += "\n    \"" + name + "\": " + std::to_string(count);
  }
  out += report.counts_by_type.empty() ? "},\n" : "\n  },\n";
  if (report.run_meta.has_value()) {
    out += "  \"run\": {\"studied_announcements\": " +
           std::to_string(report.run_meta->a) +
           ", \"threshold\": " + std::to_string(report.run_meta->b) + "},\n";
  }
  out += "  \"zombies\": [";
  for (std::size_t i = 0; i < report.zombies.size(); ++i) {
    const Zombie& z = report.zombies[i];
    if (i != 0) out += ',';
    out += "\n    {\"prefix\": \"" + z.prefix.to_string() + "\", \"peer_asn\": " +
           std::to_string(z.peer_asn) + ", \"peer\": \"" +
           z.peer_address.to_string() + "\", \"withdrawn_at\": " +
           std::to_string(z.withdrawn_at) + ", \"declared_at\": " +
           std::to_string(z.declared_at) + ", \"threshold\": " +
           std::to_string(z.threshold);
    if (z.cleared_at.has_value())
      out += ", \"cleared_at\": " + std::to_string(*z.cleared_at);
    out += "}";
  }
  out += report.zombies.empty() ? "],\n" : "\n  ],\n";
  out += "  \"resurrections\": [";
  first = true;
  for (const auto& [prefix, chain] : report.resurrections) {
    for (const auto& ev : chain) {
      if (!first) out += ',';
      first = false;
      out += "\n    {\"prefix\": \"" + prefix.to_string() + "\", \"vanished_at\": " +
             std::to_string(ev.a) + ", \"reappeared_at\": " + std::to_string(ev.b) +
             ", \"peer_asn\": " + std::to_string(ev.peer_asn) + ", \"peer\": \"" +
             ev.peer_address.to_string() + "\"}";
    }
  }
  out += report.resurrections.empty() ? "]" : "\n  ]";
  if (opt.peers) {
    out += ",\n  \"peer_transitions\": [";
    first = true;
    for (const auto& [peer, transitions] : report.peer_transitions) {
      (void)peer;
      for (const auto& ev : transitions) {
        if (!first) out += ',';
        first = false;
        out += "\n    " + obs::to_ndjson(ev);
      }
    }
    out += first ? "],\n" : "\n  ],\n";
    out += "  \"noisy_final\": [";
    first = true;
    for (const auto& peer : report.noisy_final) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + peer + "\"";
    }
    out += "]";
  }
  if (opt.prefix.has_value()) {
    out += ",\n  \"timeline\": [";
    first = true;
    for (const auto& ev : report.events) {
      if (!ev.has_prefix || ev.prefix != *opt.prefix) continue;
      if (!first) out += ',';
      first = false;
      out += "\n    " + obs::to_ndjson(ev);
    }
    out += first ? "]" : "\n  ]";
  }
  out += "\n}\n";
  std::fputs(out.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--version") {
      std::puts(obs::identity_line("zsreport").c_str());
      return 0;
    }
  }
  const Options opt = parse_options(argc, argv);
  obs::ScopedProfileSession profile(opt.profile_out);
  std::vector<obs::JournalEvent> events;
  try {
    events = obs::read_journal_file(opt.journal_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const Report report = build_report(std::move(events));
  if (opt.json)
    print_json(report, opt);
  else
    print_text(report, opt);
  return 0;
}
