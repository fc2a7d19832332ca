// fig7_concurrent_cdf — reproduces Figure 7 (App. B.2): the CDF of
// the number of concurrent zombie outbreaks (outbreaks sharing a
// beacon interval), per family, with and without double-counting.
// Shape to reproduce: a sizable share of outbreaks occur singly
// (paper: 22.35 % of IPv4 / 34.04 % of IPv6 with dc; 26.38 % / 37.97 %
// after dedup), while a large IPv4 mass (26.96 %) emerges
// simultaneously for ALL beacon prefixes — whole-session events.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/stats.hpp"
#include "bench/bench_common.hpp"
#include "zombie/analyzer.hpp"
#include "zombie/interval_detector.hpp"

using namespace zombiescope;

namespace {

std::vector<zombie::ZombieOutbreak> g_outbreaks;

void print_figure() {
  bench::print_header("Figure 7 — CDF of concurrent zombie outbreaks",
                      "IMC'25 paper Fig. 7 (App. B.2)");
  std::vector<zombie::IntervalDetectionResult> results;
  for (int which = 0; which < 3; ++which) {
    auto out = bench::load_ris_period(which);
    zombie::LongLivedConfig config;
    for (const auto& peer : out.noisy_peers) config.excluded_peers.insert(peer);
    zombie::IntervalZombieDetector detector(config);
    results.push_back(detector.detect(out.updates, out.events, 90 * netbase::kMinute));
  }

  const int beacons_v4 = 13, beacons_v6 = 14;
  for (bool dedup : {false, true}) {
    std::printf("\n--- %s ---\n", dedup ? "Without double-counting" : "With double-counting");
    for (auto family : {netbase::AddressFamily::kIpv4, netbase::AddressFamily::kIpv6}) {
      std::vector<int> concurrency;
      for (const auto& result : results) {
        const auto& outbreaks =
            dedup ? result.outbreaks_deduplicated : result.outbreaks_with_duplicates;
        auto c = zombie::concurrent_outbreaks(outbreaks, family);
        concurrency.insert(concurrency.end(), c.begin(), c.end());
        if (!dedup && family == netbase::AddressFamily::kIpv4)
          g_outbreaks.insert(g_outbreaks.end(), outbreaks.begin(), outbreaks.end());
      }
      analysis::Cdf cdf(std::vector<double>(concurrency.begin(), concurrency.end()));
      int single = 0, all_beacons = 0;
      const int family_count =
          family == netbase::AddressFamily::kIpv4 ? beacons_v4 : beacons_v6;
      for (int c : concurrency) {
        if (c == 1) ++single;
        if (c >= family_count) ++all_beacons;
      }
      const double n = std::max<std::size_t>(1, concurrency.size());
      std::printf("%s: outbreaks=%zu singly=%s all-%d-beacons=%s\n",
                  std::string(netbase::to_string(family)).c_str(), concurrency.size(),
                  analysis::pct(single / n).c_str(), family_count,
                  analysis::pct(all_beacons / n).c_str());
      std::fputs(analysis::render_cdf(cdf, "concurrent", 10).c_str(), stdout);
    }
  }
  std::printf("\nPaper: 22.35%% of IPv4 and 34.04%% of IPv6 outbreaks occurred singly\n"
              "(26.38%%/37.97%% after dedup); 26.96%% of IPv4 outbreaks emerged\n"
              "simultaneously for all beacon prefixes (26.71%% after dedup).\n");
}

void BM_Concurrency(benchmark::State& state) {
  for (auto _ : state) {
    auto c = zombie::concurrent_outbreaks(g_outbreaks, netbase::AddressFamily::kIpv4);
    benchmark::DoNotOptimize(c.size());
  }
}
BENCHMARK(BM_Concurrency)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
