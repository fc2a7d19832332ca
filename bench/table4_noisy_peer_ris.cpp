// table4_noisy_peer_ris — reproduces Table 4 (and the §3.2 noisy-peer
// analysis): the mean and median likelihood of the ⟨RIPE RIS beacon,
// AS16347⟩ pair to have a zombie route, per family, with and without
// the double-counting filter — against the ~1.6 % background of the
// remaining peers. Also demonstrates that the NoisyPeerFilter flags
// AS16347 statistically.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/stats.hpp"
#include "bench/bench_common.hpp"
#include "zombie/analyzer.hpp"
#include "zombie/interval_detector.hpp"
#include "zombie/noisy.hpp"

using namespace zombiescope;

namespace {

scenarios::ScenarioOutput g_out;
zombie::IntervalDetectionResult g_result;

double mean_of(const std::vector<zombie::EmergenceRate>& rates, bgp::Asn asn, bool only) {
  double sum = 0;
  int n = 0;
  for (const auto& r : rates) {
    if ((r.peer_asn == asn) != only) continue;
    sum += r.rate();
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() % 2 == 1 ? v[v.size() / 2] : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
}

void print_table() {
  bench::print_header("Table 4 — the noisy RIS peer AS16347",
                      "IMC'25 paper Table 4 + §3.2 (noisy-peer exclusion)");
  g_out = bench::load_ris_period(0);  // 2018 period hosts the analysis

  zombie::IntervalZombieDetector detector({});  // noisy peer included on purpose
  g_result = detector.detect(g_out.updates, g_out.events, 90 * netbase::kMinute);

  std::vector<std::vector<std::string>> rows;
  for (bool dedup : {false, true}) {
    for (auto family : {netbase::AddressFamily::kIpv4, netbase::AddressFamily::kIpv6}) {
      const auto rates = zombie::emergence_rates(g_result, family, dedup);
      std::vector<double> noisy_rates, other_rates;
      for (const auto& r : rates)
        (r.peer_asn == scenarios::kNoisyRisPeerAsn ? noisy_rates : other_rates)
            .push_back(r.rate());
      rows.push_back({std::string(dedup ? "without dc" : "with dc") + " " +
                          std::string(netbase::to_string(family)),
                      analysis::fmt(mean_of(rates, scenarios::kNoisyRisPeerAsn, true), 4),
                      analysis::fmt(median_of(noisy_rates), 4),
                      analysis::fmt(mean_of(rates, scenarios::kNoisyRisPeerAsn, false), 4)});
    }
  }
  std::fputs(analysis::render_table({"Population", "AS16347 mean", "AS16347 median",
                                     "other peers mean"},
                                    rows)
                 .c_str(),
             stdout);
  std::printf("Paper Table 4: AS16347 IPv6 mean 0.4284 (with dc) / 0.426 (without);\n"
              "IPv4 mean 0.044 / 0.0018; remaining peers average ~1.58%% for IPv6.\n\n");

  // Statistical detection of the outlier, as the methodology demands.
  zombie::NoisyPeerFilter filter;
  // The outlier test runs on the deduplicated route population (the
  // paper's 1.58% background is an after-dedup figure).
  std::vector<zombie::ZombieRoute> unique_routes;
  for (const auto& route : g_result.routes)
    if (!route.duplicate) unique_routes.push_back(route);
  const auto stats =
      filter.stats(unique_routes, g_out.all_peers, static_cast<int>(g_out.events.size()));
  const auto noisy = filter.noisy_peers(stats);
  std::printf("NoisyPeerFilter verdict (%zu peers):\n", stats.size());
  for (const auto& peer : noisy)
    std::printf("  NOISY: %s stuck probability %s\n", zombie::to_string(peer.peer).c_str(),
                analysis::pct(peer.probability()).c_str());
  std::printf("  (expected: exactly the injected AS16347 session)\n");
}

void BM_EmergenceRates(benchmark::State& state) {
  for (auto _ : state) {
    auto rates = zombie::emergence_rates(g_result, netbase::AddressFamily::kIpv6, true);
    benchmark::DoNotOptimize(rates.size());
  }
}
BENCHMARK(BM_EmergenceRates)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
