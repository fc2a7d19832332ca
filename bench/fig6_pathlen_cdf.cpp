// fig6_pathlen_cdf — reproduces Figure 6 (App. B.2): the CDF of AS
// path lengths of (i) normal paths at peers that withdrew (normal
// peers), (ii) normal paths at peers that got stuck (zombie peers),
// and (iii) the zombie (stuck) paths themselves — with and without
// double-counting. Shape to reproduce: zombie paths are longer than
// normal paths (they emerge from path hunting), and the vast majority
// of zombie paths differ from the pre-withdrawal path (paper: 96.1 %
// for IPv4 / 90.03 % for IPv6 with dc; 95.54 % / 79.61 % without).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/stats.hpp"
#include "bench/bench_common.hpp"
#include "zombie/analyzer.hpp"
#include "zombie/interval_detector.hpp"

using namespace zombiescope;

namespace {

zombie::IntervalDetectionResult g_result;

void print_figure() {
  bench::print_header("Figure 6 — CDFs of AS path lengths (normal vs zombie paths)",
                      "IMC'25 paper Fig. 6 (App. B.2)");
  std::vector<zombie::IntervalDetectionResult> results;
  for (int which = 0; which < 3; ++which) {
    auto out = bench::load_ris_period(which);
    zombie::LongLivedConfig config;
    for (const auto& peer : out.noisy_peers) config.excluded_peers.insert(peer);
    zombie::IntervalZombieDetector detector(config);
    results.push_back(detector.detect(out.updates, out.events, 90 * netbase::kMinute));
    if (which == 0) g_result = results.back();
  }

  for (bool dedup : {false, true}) {
    std::printf("\n--- %s ---\n", dedup ? "Without double-counting" : "With double-counting");
    for (auto family : {netbase::AddressFamily::kIpv4, netbase::AddressFamily::kIpv6}) {
      zombie::PathLengthPopulations merged;
      double changed_sum = 0;
      int changed_n = 0;
      for (const auto& result : results) {
        auto pops = zombie::path_length_populations(result, family, dedup);
        auto append = [](std::vector<int>& into, const std::vector<int>& from) {
          into.insert(into.end(), from.begin(), from.end());
        };
        append(merged.normal_at_normal_peers, pops.normal_at_normal_peers);
        append(merged.normal_at_zombie_peers, pops.normal_at_zombie_peers);
        append(merged.zombie_paths, pops.zombie_paths);
        if (!pops.zombie_paths.empty()) {
          changed_sum += pops.changed_path_fraction * pops.zombie_paths.size();
          changed_n += static_cast<int>(pops.zombie_paths.size());
        }
      }
      const auto normal = analysis::Cdf::of<int>(merged.normal_at_normal_peers);
      const auto at_zombie = analysis::Cdf::of<int>(merged.normal_at_zombie_peers);
      const auto zombie_paths = analysis::Cdf::of<int>(merged.zombie_paths);
      std::printf("%s:\n", std::string(netbase::to_string(family)).c_str());
      std::printf("  normal path @ normal peers: n=%zu mean=%.2f median=%.0f\n",
                  normal.size(), normal.mean(), normal.median());
      std::printf("  normal path @ zombie peers: n=%zu mean=%.2f median=%.0f\n",
                  at_zombie.size(), at_zombie.mean(), at_zombie.median());
      std::printf("  zombie (stuck) paths:       n=%zu mean=%.2f median=%.0f\n",
                  zombie_paths.size(), zombie_paths.mean(), zombie_paths.median());
      if (changed_n > 0)
        std::printf("  zombie paths differing from pre-withdrawal path: %s\n",
                    analysis::pct(changed_sum / changed_n).c_str());
      if (!zombie_paths.empty() && !normal.empty())
        std::printf("  zombie paths longer than normal paths: %s\n",
                    zombie_paths.mean() > normal.mean() ? "yes (path hunting)" : "NO");
    }
  }
  std::printf("\nPaper: zombie paths are longer (elected during path hunting after the\n"
              "withdrawal); 96.1%%/90.03%% (v4/v6, with dc) of zombie paths differ from\n"
              "the pre-withdrawal path (95.54%%/79.61%% without dc).\n");
}

void BM_PathPopulations(benchmark::State& state) {
  for (auto _ : state) {
    auto pops =
        zombie::path_length_populations(g_result, netbase::AddressFamily::kIpv6, true);
    benchmark::DoNotOptimize(pops.zombie_paths.size());
  }
}
BENCHMARK(BM_PathPopulations)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
