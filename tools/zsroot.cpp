// zsroot — withdraw-propagation forensics and root-cause scoring.
//
// Works on the causal provenance the tracer records (obs/causal.hpp):
// per-hop (trace, AS, time, decision) records of how each sampled BGP
// update moved — or died — across the simulated AS graph.
//
//   zsroot tree JOURNAL [--prefix P] [--max-traces N]
//       Reconstructs the propagation trees from a journal written with
//       the `propagation` category enabled and renders them per
//       prefix.
//
//   zsroot localize JOURNAL [--prefix P] [--json]
//       Localizes every withdrawal wave's frontier: the ASes the
//       withdraw reached, and the exact links where it was suppressed
//       or stalled — the boundary between "saw the withdraw" and
//       "never did".
//
//   zsroot score [--seeds N] [--json] [--out FILE]
//       Runs the seeded fault suite (scenarios/faultlab.hpp) and
//       scores both localizers against ground truth: causal frontier
//       localization must name the injected link exactly; the
//       palm-tree heuristic (zombie::infer_root_cause) is graded
//       exact / off-by-one-upstream / wrong against the culprit AS.
//       --out writes the JSON accuracy report regardless of --json.
//
// JOURNAL may be '-' for stdin. Exit codes: 0 ok; 1 scoring found
// localization below 100%; 2 usage; 3 unreadable/empty input.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/build_info.hpp"
#include "obs/causal.hpp"
#include "obs/journal.hpp"
#include "scenarios/faultlab.hpp"
#include "zombie/propagation.hpp"

using namespace zombiescope;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s tree JOURNAL [--prefix P] [--max-traces N]\n"
               "       %s localize JOURNAL [--prefix P] [--json]\n"
               "       %s score [--seeds N] [--json] [--out FILE]\n"
               "       (JOURNAL may be '-' to read from stdin; --version prints build identity)\n",
               argv0, argv0, argv0);
  std::exit(2);
}

struct Options {
  std::string mode;
  std::string journal_path;
  std::optional<netbase::Prefix> prefix;
  std::size_t max_traces = 8;
  int seeds = 5;
  bool json = false;
  std::string out_path;
};

Options parse_options(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  Options opt;
  opt.mode = argv[1];
  if (opt.mode != "tree" && opt.mode != "localize" && opt.mode != "score") usage(argv[0]);

  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--prefix") {
      const auto parsed = netbase::Prefix::try_parse(need_value(i));
      if (!parsed.has_value()) usage(argv[0]);
      opt.prefix = *parsed;
    } else if (arg == "--max-traces") {
      opt.max_traces = static_cast<std::size_t>(std::stoul(need_value(i)));
    } else if (arg == "--seeds") {
      opt.seeds = std::stoi(need_value(i));
      if (opt.seeds < 1) usage(argv[0]);
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--out") {
      opt.out_path = need_value(i);
    } else if (!arg.starts_with("--") && opt.journal_path.empty()) {
      opt.journal_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.mode != "score" && opt.journal_path.empty()) usage(argv[0]);
  return opt;
}

/// Extracts propagation hops from a journal, grouped per prefix.
std::map<netbase::Prefix, std::vector<obs::HopRecord>> load_hops(const Options& opt) {
  std::vector<obs::JournalEvent> events;
  try {
    events = obs::read_journal_file(opt.journal_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zsroot: %s\n", e.what());
    std::exit(3);
  }
  std::map<netbase::Prefix, std::vector<obs::HopRecord>> by_prefix;
  for (const obs::JournalEvent& event : events) {
    const auto hop = obs::hop_from_event(event);
    if (!hop.has_value()) continue;
    if (opt.prefix.has_value() && hop->prefix != *opt.prefix) continue;
    by_prefix[hop->prefix].push_back(*hop);
  }
  if (by_prefix.empty()) {
    std::fprintf(stderr, "zsroot: no propagation events%s in %s (journal written "
                         "without the 'propagation' category?)\n",
                 opt.prefix.has_value() ? " for that prefix" : "",
                 opt.journal_path.c_str());
    std::exit(3);
  }
  return by_prefix;
}

int run_tree(const Options& opt) {
  for (const auto& [prefix, hops] : load_hops(opt))
    std::fputs(obs::render_propagation_tree(prefix, hops, opt.max_traces).c_str(), stdout);
  return 0;
}

void print_frontier_text(const zombie::FrontierResult& frontier) {
  std::printf("prefix %s trace %llu\n", frontier.prefix.to_string().c_str(),
              static_cast<unsigned long long>(frontier.trace_id));
  std::printf("  reached %zu AS(es):", frontier.reached.size());
  for (const std::uint32_t asn : frontier.reached) std::printf(" %u", asn);
  std::printf("\n");
  if (frontier.culprits.empty()) {
    std::printf("  no dead links: the withdrawal reached everyone it was sent to\n");
    return;
  }
  for (const zombie::CulpritLink& culprit : frontier.culprits)
    std::printf("  died on AS%u -> AS%u (%s) at t=%lld\n", culprit.from_asn,
                culprit.to_asn, std::string(obs::to_string(culprit.decision)).c_str(),
                static_cast<long long>(culprit.time));
}

void print_frontier_json(FILE* out, const zombie::FrontierResult& frontier, bool last) {
  std::fprintf(out, "    {\"prefix\":\"%s\",\"trace_id\":%llu,\"reached\":[",
               frontier.prefix.to_string().c_str(),
               static_cast<unsigned long long>(frontier.trace_id));
  for (std::size_t i = 0; i < frontier.reached.size(); ++i)
    std::fprintf(out, "%s%u", i == 0 ? "" : ",", frontier.reached[i]);
  std::fprintf(out, "],\"culprits\":[");
  for (std::size_t i = 0; i < frontier.culprits.size(); ++i) {
    const zombie::CulpritLink& culprit = frontier.culprits[i];
    std::fprintf(out, "%s{\"from_asn\":%u,\"to_asn\":%u,\"decision\":\"%s\",\"time\":%lld}",
                 i == 0 ? "" : ",", culprit.from_asn, culprit.to_asn,
                 std::string(obs::to_string(culprit.decision)).c_str(),
                 static_cast<long long>(culprit.time));
  }
  std::fprintf(out, "]}%s\n", last ? "" : ",");
}

int run_localize(const Options& opt) {
  std::vector<zombie::FrontierResult> frontiers;
  for (const auto& [prefix, hops] : load_hops(opt)) {
    (void)prefix;
    for (zombie::FrontierResult& frontier : zombie::localize_frontiers(hops))
      frontiers.push_back(std::move(frontier));
  }
  if (frontiers.empty()) {
    std::fprintf(stderr, "zsroot: no withdrawal-rooted traces in the journal\n");
    return 3;
  }
  if (opt.json) {
    std::printf("{\n  \"schema\": \"zsroot-localize-v1\",\n  \"frontiers\": [\n");
    for (std::size_t i = 0; i < frontiers.size(); ++i)
      print_frontier_json(stdout, frontiers[i], i + 1 == frontiers.size());
    std::printf("  ]\n}\n");
  } else {
    for (const zombie::FrontierResult& frontier : frontiers) print_frontier_text(frontier);
  }
  return 0;
}

void write_score_json(FILE* out, const std::vector<scenarios::FaultScenarioResult>& results,
                      const scenarios::FaultSuiteSummary& summary, int seeds) {
  std::fprintf(out, "{\n  \"schema\": \"zsroot-score-v1\",\n  \"seeds\": %d,\n", seeds);
  std::fprintf(out, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const scenarios::FaultScenarioResult& r = results[i];
    std::fprintf(out,
                 "    {\"name\":\"%s\",\"kind\":\"%s\",\"injected_from\":%u,"
                 "\"injected_to\":%u,\"culprit_asn\":%u,\"zombies\":%zu,"
                 "\"localized_exact\":%s,\"rootcause_suspect\":%lld,"
                 "\"rootcause_score\":\"%s\"}%s\n",
                 r.spec.name().c_str(), scenarios::to_string(r.spec.kind).c_str(),
                 r.injected_from, r.injected_to, r.culprit_asn, r.zombie_asns.size(),
                 r.localized_exact ? "true" : "false",
                 r.rootcause.suspect.has_value() ? static_cast<long long>(*r.rootcause.suspect)
                                                 : -1ll,
                 scenarios::to_string(r.rootcause_score).c_str(),
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"summary\": {\"total\": %d, \"localized_exact\": %d, "
               "\"localization_accuracy\": %.4f, \"rootcause_exact\": %d, "
               "\"rootcause_off_by_one_upstream\": %d, \"rootcause_wrong\": %d}\n}\n",
               summary.total, summary.localized_exact, summary.localization_accuracy(),
               summary.rootcause_exact, summary.rootcause_off_by_one,
               summary.rootcause_wrong);
}

int run_score(const Options& opt) {
  std::vector<scenarios::FaultScenarioResult> results;
  for (const scenarios::FaultScenarioSpec& spec : scenarios::default_fault_suite(opt.seeds))
    results.push_back(scenarios::run_fault_scenario(spec));
  const scenarios::FaultSuiteSummary summary = scenarios::summarize(results);

  if (opt.json) {
    write_score_json(stdout, results, summary, opt.seeds);
  } else {
    std::printf("zsroot score: %d scenarios (%d seeds x shapes x fault kinds)\n\n",
                summary.total, opt.seeds);
    std::printf("%-52s %-10s %s\n", "scenario", "localized", "infer_root_cause");
    for (const scenarios::FaultScenarioResult& r : results)
      std::printf("%-52s %-10s %s\n", r.spec.name().c_str(),
                  r.localized_exact ? "exact" : "MISSED",
                  scenarios::to_string(r.rootcause_score).c_str());
    std::printf("\nlocalization: %d/%d exact (%.1f%%)\n", summary.localized_exact,
                summary.total, 100.0 * summary.localization_accuracy());
    std::printf("infer_root_cause: exact %d/%d (%.1f%%), off-by-one-upstream %d/%d "
                "(%.1f%%), wrong %d/%d (%.1f%%)\n",
                summary.rootcause_exact, summary.total,
                100.0 * summary.rootcause_exact_rate(), summary.rootcause_off_by_one,
                summary.total,
                summary.total == 0 ? 0.0
                                   : 100.0 * summary.rootcause_off_by_one / summary.total,
                summary.rootcause_wrong, summary.total,
                summary.total == 0 ? 0.0 : 100.0 * summary.rootcause_wrong / summary.total);
  }

  if (!opt.out_path.empty()) {
    FILE* out = std::fopen(opt.out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "zsroot: cannot write %s\n", opt.out_path.c_str());
      return 3;
    }
    write_score_json(out, results, summary, opt.seeds);
    std::fclose(out);
  }
  return summary.localized_exact == summary.total ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--version") {
      std::puts(obs::identity_line("zsroot").c_str());
      return 0;
    }
  }
  const Options opt = parse_options(argc, argv);
  if (opt.mode == "tree") return run_tree(opt);
  if (opt.mode == "localize") return run_localize(opt);
  return run_score(opt);
}
