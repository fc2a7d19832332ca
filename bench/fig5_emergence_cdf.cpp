// fig5_emergence_cdf — reproduces Figure 5 (App. B.2): the CDF of the
// likelihood of a <RIPE RIS beacon, peer AS> pair to have a zombie
// route (zombie emergence rate), with and without double-counting,
// per address family. Paper findings to reproduce: a sizable share of
// pairs never produce a zombie (18.76 %); half the pairs are below
// ~0.5 % (0.26 % after dedup); IPv6 averages above IPv4; averages drop
// after the Aggregator filter (0.88 % -> 0.54 % for IPv4, 1.82 % ->
// 1.58 % for IPv6).

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
  bench::print_header("Figure 5 — CDF of <beacon, peerAS> zombie emergence rates",
                      "IMC'25 paper Fig. 5 (App. B.2)");
  // Aggregate over the three periods like the paper's appendix.
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
      std::vector<double> rates;
      int zero_pairs = 0;
      for (const auto& result : results) {
        for (const auto& rate : zombie::emergence_rates(result, family, dedup)) {
          rates.push_back(rate.rate());
          if (rate.zombies == 0) ++zero_pairs;
        }
      }
      analysis::Cdf cdf(rates);
      std::printf("%s: pairs=%zu zero-rate=%s mean=%s median=%s\n",
                  std::string(netbase::to_string(family)).c_str(), rates.size(),
                  analysis::pct(static_cast<double>(zero_pairs) /
                                static_cast<double>(std::max<std::size_t>(1, rates.size())))
                      .c_str(),
                  analysis::pct(cdf.mean()).c_str(), analysis::pct(cdf.median()).c_str());
      std::fputs(analysis::render_cdf(cdf, "rate", 10).c_str(), stdout);
    }
  }
  std::printf("\nPaper: with dc — 18.76%% of pairs show no zombies; 50%% of pairs < 0.52%%;\n"
              "means 0.88%% (v4) / 1.82%% (v6). Without dc — 50%% < 0.26%%; means 0.54%% /\n"
              "1.58%%. Shape checks: v6 mean > v4 mean; dedup lowers both means.\n");
}

void BM_EmergenceRatesBothFamilies(benchmark::State& state) {
  for (auto _ : state) {
    auto v4 = zombie::emergence_rates(g_result, netbase::AddressFamily::kIpv4, true);
    auto v6 = zombie::emergence_rates(g_result, netbase::AddressFamily::kIpv6, true);
    benchmark::DoNotOptimize(v4.size() + v6.size());
  }
}
BENCHMARK(BM_EmergenceRatesBothFamilies)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
