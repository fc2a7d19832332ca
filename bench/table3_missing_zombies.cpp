// table3_missing_zombies — reproduces Table 3: the number of zombie
// routes and outbreaks that each methodology misses relative to the
// other, aggregated over the three replication periods. "Study"
// misses events the raw methodology reports (late re-announcements
// inside the looking-glass lag) and vice versa (withdrawals inside
// the lag window).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/stats.hpp"
#include "bench/bench_common.hpp"
#include "zombie/interval_detector.hpp"
#include "zombie/lookingglass.hpp"

using namespace zombiescope;

namespace {

std::vector<zombie::ZombieRoute> g_routes_a, g_routes_b;
std::vector<zombie::ZombieOutbreak> g_breaks_a, g_breaks_b;

void print_table() {
  bench::print_header("Table 3 — zombies missed by each methodology",
                      "IMC'25 paper Table 3 (App. B.1)");
  zombie::MissingCounts study_misses{};   // in our results, absent from study's
  zombie::MissingCounts ours_misses{};    // in study's results, absent from ours

  for (int which = 0; which < 3; ++which) {
    auto out = bench::load_ris_period(which);
    // For this comparison the noisy peer stays in (the paper counts
    // "including the ones from the noisy peer").
    zombie::IntervalZombieDetector raw({});
    const auto raw_result = raw.detect(out.updates, out.events, 90 * netbase::kMinute);
    zombie::LookingGlassDetector study{zombie::LookingGlassConfig{}};
    const auto study_result = study.detect(out.updates, out.events);

    const auto sm = zombie::count_missing(raw_result.routes,
                                          raw_result.outbreaks_with_duplicates,
                                          study_result.routes, study_result.outbreaks);
    const auto om = zombie::count_missing(study_result.routes, study_result.outbreaks,
                                          raw_result.routes,
                                          raw_result.outbreaks_with_duplicates);
    study_misses.routes_v4 += sm.routes_v4;
    study_misses.routes_v6 += sm.routes_v6;
    study_misses.outbreaks_v4 += sm.outbreaks_v4;
    study_misses.outbreaks_v6 += sm.outbreaks_v6;
    ours_misses.routes_v4 += om.routes_v4;
    ours_misses.routes_v6 += om.routes_v6;
    ours_misses.outbreaks_v4 += om.outbreaks_v4;
    ours_misses.outbreaks_v6 += om.outbreaks_v6;
    if (which == 0) {
      g_routes_a = raw_result.routes;
      g_breaks_a = raw_result.outbreaks_with_duplicates;
      g_routes_b = study_result.routes;
      g_breaks_b = study_result.outbreaks;
    }
  }

  std::fputs(
      analysis::render_table(
          {"Side", "Missing routes v4", "Missing routes v6", "Missing outbreaks v4",
           "Missing outbreaks v6"},
          {{"Study [4] misses", std::to_string(study_misses.routes_v4),
            std::to_string(study_misses.routes_v6), std::to_string(study_misses.outbreaks_v4),
            std::to_string(study_misses.outbreaks_v6)},
           {"  (paper)", "4956", "4374", "616", "308"},
           {"Our results miss", std::to_string(ours_misses.routes_v4),
            std::to_string(ours_misses.routes_v6), std::to_string(ours_misses.outbreaks_v4),
            std::to_string(ours_misses.outbreaks_v6)},
           {"  (paper)", "22110", "15169", "230", "54"}})
          .c_str(),
      stdout);
  std::printf("Paper headline: 'surprisingly, each side misses zombie routes and\n"
              "outbreaks that the other reports' — both columns are non-zero.\n");
}

void BM_CountMissing(benchmark::State& state) {
  for (auto _ : state) {
    auto counts = zombie::count_missing(g_routes_a, g_breaks_a, g_routes_b, g_breaks_b);
    benchmark::DoNotOptimize(counts.routes_v4);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g_routes_a.size()));
}
BENCHMARK(BM_CountMissing)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
