// ablation_lookingglass_lag — ablates the looking-glass service delay
// to quantify the paper's §3.1 argument against black-box real-time
// services: "if the service state is updated with a delay of a few
// minutes, then checking the state of a fully withdrawn prefix before
// the service is updated would lead to false positives." At lag 0 the
// emulated looking glass agrees with the raw methodology. A delay of a
// few minutes already makes it miss real zombies and add false ones;
// each count then stops growing (on ris2018 the misses hold from 4 min
// of lag on, the additions from 16 min).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/stats.hpp"
#include "bench/bench_common.hpp"
#include "zombie/interval_detector.hpp"
#include "zombie/lookingglass.hpp"

using namespace zombiescope;

namespace {

scenarios::ScenarioOutput g_out;
zombie::IntervalDetectionResult g_raw;

void print_ablation() {
  bench::print_header("Ablation — looking-glass service lag vs methodology disagreement",
                      "IMC'25 paper §3.1 (the case for raw-data-only detection)");
  g_out = bench::load_ris_period(0);
  zombie::IntervalZombieDetector raw({});
  g_raw = raw.detect(g_out.updates, g_out.events, 90 * netbase::kMinute);

  std::vector<std::vector<std::string>> rows;
  for (int lag_minutes : {0, 2, 4, 8, 16, 30}) {
    zombie::LookingGlassConfig config;
    config.lag = lag_minutes * netbase::kMinute;
    config.stale_snapshot_probability = 0.0;  // isolate the lag effect
    zombie::LookingGlassDetector lg(config);
    const auto lg_result = lg.detect(g_out.updates, g_out.events);

    const auto lg_misses = zombie::count_missing(
        g_raw.routes, g_raw.outbreaks_with_duplicates, lg_result.routes, lg_result.outbreaks);
    const auto lg_extras = zombie::count_missing(
        lg_result.routes, lg_result.outbreaks, g_raw.routes, g_raw.outbreaks_with_duplicates);
    rows.push_back({std::to_string(lag_minutes) + "m",
                    std::to_string(lg_result.outbreaks.size()),
                    std::to_string(lg_misses.routes_v4 + lg_misses.routes_v6),
                    std::to_string(lg_extras.routes_v4 + lg_extras.routes_v6)});
  }
  std::fputs(analysis::render_table({"Service lag", "LG outbreaks", "real zombies missed",
                                     "false zombies added"},
                                    rows)
                 .c_str(),
             stdout);
  std::printf("Raw methodology baseline: %zu outbreaks. With zero lag the looking\n"
              "glass agrees exactly. A service delay moves zombies across the\n"
              "90-minute boundary in both directions; each direction grows over the\n"
              "first minutes of delay and then holds (the rows above show where).\n",
              g_raw.outbreaks_with_duplicates.size());
}

void BM_LookingGlassLagSweep(benchmark::State& state) {
  zombie::LookingGlassConfig config;
  config.lag = 8 * netbase::kMinute;
  config.stale_snapshot_probability = 0.0;
  zombie::LookingGlassDetector lg(config);
  for (auto _ : state) {
    auto result = lg.detect(g_out.updates, g_out.events);
    benchmark::DoNotOptimize(result.outbreaks.size());
  }
}
BENCHMARK(BM_LookingGlassLagSweep)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  print_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
