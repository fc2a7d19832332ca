// zswire — the BGP-4 wire subsystem's command-line face.
//
//   zswire score [--seeds N] [--json] [--out FILE]
//       Runs the session-layer fault suite (scenarios/wirefault.hpp):
//       hold-timer expiry vs send-hold stall, graceful-restart stale
//       retention, LLGR long retention — each scored against analytic
//       ground truth through the real-time detector. --out writes the
//       JSON report (SCORE_wire.json) regardless of --json.
//
//   zswire peer HOST PORT [--asn N] [--address IP] [--announce PFX]...
//              [--hold S] [--wait S]
//       Dials a BGP speaker (zslived --bgp-listen), completes the
//       OPEN/KEEPALIVE handshake, announces the given prefixes, and
//       holds the session up for --wait seconds, answering KEEPALIVEs.
//       The loopback soak peer: after it connects, /sessions on the
//       daemon must show one Established session with this ASN.
//
//   zswire replay FILE HOST PORT [--no-stamp]
//       Replays an MRT update archive over real BGP sessions (one per
//       distinct archive peer) against a collector speaker, carrying
//       archive timestamps and ordering in the bridge sideband so the
//       receiver reproduces the batch record stream exactly.
//
// Exit codes: 0 ok; 1 score below 100% (or replay/peer failure);
// 2 usage.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "mrt/codec.hpp"
#include "netbase/reactor.hpp"
#include "obs/build_info.hpp"
#include "scenarios/wirefault.hpp"
#include "wire/bridge.hpp"
#include "wire/message.hpp"

using namespace zombiescope;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s score [--seeds N] [--json] [--out FILE]\n"
      "       %s peer HOST PORT [--asn N] [--address IP] [--announce PFX]...\n"
      "                [--hold S] [--wait S]\n"
      "       %s replay FILE HOST PORT [--no-stamp]\n"
      "       (--version prints build identity)\n",
      argv0, argv0, argv0);
  std::exit(2);
}

void write_score_json(FILE* out,
                      const std::vector<scenarios::WireScenarioResult>& results,
                      const scenarios::WireSuiteSummary& summary, int seeds) {
  std::fprintf(out, "{\n  \"suite\": \"wirefault\",\n  \"seeds\": %d,\n", seeds);
  std::fprintf(out,
               "  \"total\": %d,\n  \"passed\": %d,\n  \"pass_rate\": %.4f,\n",
               summary.total, summary.passed, summary.pass_rate());
  std::fprintf(out,
               "  \"zombies\": {\"expected\": %d, \"detected\": %d},\n"
               "  \"resolutions\": {\"expected\": %d, \"detected\": %d},\n",
               summary.zombies_expected, summary.zombies_detected,
               summary.resolutions_expected, summary.resolutions_detected);
  std::fprintf(out, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"prefix\": \"%s\", \"peer_asn\": %u, "
                 "\"passed\": %s, \"expect_zombie\": %s, "
                 "\"emergence\": %lld, \"resolution\": %lld, "
                 "\"drop_reason\": \"%s\", \"flush_reason\": \"%s\", "
                 "\"failure\": \"%s\"}%s\n",
                 r.spec.name().c_str(), r.prefix.to_string().c_str(), r.peer.asn,
                 r.passed ? "true" : "false", r.expect_zombie ? "true" : "false",
                 static_cast<long long>(r.measured_emergence),
                 static_cast<long long>(r.measured_resolution),
                 r.drop_reason.c_str(), to_string(r.flush_reason).c_str(),
                 r.failure.c_str(), i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
}

int run_score(int argc, char** argv) {
  int seeds = 3;
  bool json = false;
  std::string out_path;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) seeds = std::atoi(argv[++i]);
    else if (arg == "--json") json = true;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else usage(argv[0]);
  }
  std::vector<scenarios::WireScenarioResult> results;
  for (const auto& spec : scenarios::default_wire_suite(seeds))
    results.push_back(scenarios::run_wire_scenario(spec));
  const auto summary = scenarios::summarize_wire(results);

  if (json) {
    write_score_json(stdout, results, summary, seeds);
  } else {
    std::printf("wirefault suite: %d scenario(s), %d passed (%.1f%%)\n",
                summary.total, summary.passed, 100.0 * summary.pass_rate());
    std::printf("  zombies     %d expected, %d detected\n",
                summary.zombies_expected, summary.zombies_detected);
    std::printf("  resolutions %d expected, %d detected\n",
                summary.resolutions_expected, summary.resolutions_detected);
    for (const auto& r : results) {
      std::printf("  %-28s %s%s%s\n", r.spec.name().c_str(),
                  r.passed ? "pass" : "FAIL", r.failure.empty() ? "" : ": ",
                  r.failure.c_str());
    }
  }
  if (!out_path.empty()) {
    FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    write_score_json(out, results, summary, seeds);
    std::fclose(out);
  }
  return summary.passed == summary.total ? 0 : 1;
}

int run_peer(int argc, char** argv) {
  if (argc < 4) usage(argv[0]);
  const std::string host = argv[2];
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[3]));
  std::uint32_t asn = 65001;
  std::string address;
  std::vector<netbase::Prefix> announce;
  long hold = 90;
  long wait = 10;
  for (int i = 4; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--asn" && i + 1 < argc) asn = static_cast<std::uint32_t>(std::atol(argv[++i]));
    else if (arg == "--address" && i + 1 < argc) address = argv[++i];
    else if (arg == "--announce" && i + 1 < argc) {
      const auto prefix = netbase::Prefix::try_parse(argv[++i]);
      if (!prefix.has_value()) usage(argv[0]);
      announce.push_back(*prefix);
    } else if (arg == "--hold" && i + 1 < argc) hold = std::atol(argv[++i]);
    else if (arg == "--wait" && i + 1 < argc) wait = std::atol(argv[++i]);
    else usage(argv[0]);
  }
  try {
    const int fd = wire::wire_connect(host, port);
    std::optional<netbase::IpAddress> logical;
    if (!address.empty()) logical = netbase::IpAddress::parse(address);
    wire::wire_handshake(fd, asn, 0xc0000200 + asn % 250, hold, logical);
    std::fprintf(stderr, "zswire peer: session established (AS%u)\n", asn);
    if (!announce.empty()) {
      bgp::UpdateMessage update;
      update.announced = announce;
      update.attributes.as_path = bgp::AsPath{asn};
      update.attributes.next_hop = netbase::IpAddress::parse("127.0.0.1");
      if (!netbase::send_all(fd, netbase::as_chars(wire::encode_update(update))))
        throw std::runtime_error("peer: send failed");
      std::fprintf(stderr, "zswire peer: announced %zu prefix(es)\n",
                   announce.size());
    }
    // Keep the session alive: answer with KEEPALIVEs on a hold/3
    // cadence, draining whatever the collector sends.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(wait);
    auto next_keepalive = std::chrono::steady_clock::now();
    const auto keepalive_wire = wire::encode_keepalive();
    char buf[4096];
    while (std::chrono::steady_clock::now() < deadline) {
      if (std::chrono::steady_clock::now() >= next_keepalive) {
        (void)netbase::send_all(fd, netbase::as_chars(keepalive_wire));
        next_keepalive += std::chrono::seconds(std::max<long>(hold / 3, 1));
      }
      while (netbase::recv_some(fd, buf, sizeof(buf), /*wait=*/false) > 0) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    wire::NotificationMessage bye;
    bye.code = wire::NotifyCode::kCease;
    bye.subcode = wire::kCeaseAdminShutdown;
    const auto bye_wire = bye.encode();
    (void)netbase::send_all(fd, netbase::as_chars(bye_wire));
    ::close(fd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

int run_replay(int argc, char** argv) {
  if (argc < 5) usage(argv[0]);
  const std::string file = argv[2];
  const std::string host = argv[3];
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[4]));
  wire::BridgeOptions options;
  for (int i = 5; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--no-stamp") options.stamp = false;
    else usage(argv[0]);
  }
  try {
    const std::vector<mrt::MrtRecord> records = mrt::read_file(file);
    const wire::BridgeStats stats =
        wire::replay_over_wire(records, host, port, options);
    std::fprintf(stderr,
                 "replayed %zu record(s): %zu session(s), %zu update(s), "
                 "%zu state change(s), %llu byte(s)\n",
                 records.size(), stats.sessions, stats.updates_sent,
                 stats.state_changes_sent,
                 static_cast<unsigned long long>(stats.bytes_sent));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--version") {
      std::puts(obs::identity_line("zswire").c_str());
      return 0;
    }
  }
  if (argc < 2) usage(argv[0]);
  const std::string_view mode = argv[1];
  if (mode == "score") return run_score(argc, argv);
  if (mode == "peer") return run_peer(argc, argv);
  if (mode == "replay") return run_replay(argc, argv);
  usage(argv[0]);
}
