// live_latency — end-to-end delivery latency of the zslive service:
// ingest stamp to SSE byte arriving back at a subscriber.
//
// Each configuration (shards x subscribers x pacing) boots a fresh
// LiveService with its HTTP server on an ephemeral port, attaches N
// LoopbackLatencyClient self-subscribers (live/loopback.hpp), replays
// the longlived2024 archive, and reports the "live.e2e" histogram
// delta for that run:
//
//   max pacing    every record as fast as the feed loop can push it.
//     The pipeline runs saturated, so e2e latency is dominated by
//     queueing — the worst-case number.
//   paced         records released on their own timestamps (sped up so
//     the months-long archive replays in ~31 s). The queues stay
//     near-empty, so this is the quiet-network floor: publish wakes
//     the serving loop through its self-pipe, so this is essentially
//     the socket round-trip (the old 25 ms poll floor is gone).
//
// Every subscriber records every transition event, so a run's sample
// count is transitions x subscribers. The per-config p50/p99 land in
// zs_bench_lat_* gauges, and the process-wide cumulative stage
// histograms land in the snapshot's "latency" section — the part
// zsbenchdiff --gate-latency gates on.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "live/feed.hpp"
#include "live/loopback.hpp"
#include "live/service.hpp"
#include "obs/http.hpp"
#include "obs/lathist.hpp"
#include "obs/metrics.hpp"

using namespace zombiescope;

namespace {

// Simulated seconds per wall second for the paced runs. The archive
// spans ~6 months (the experiment window plus its long outage tails)
// and holds ~471k records, so this replays in ~31 s of wall clock at
// an average demand of ~15k records/s — far under even the 1-shard
// capacity (~111k/s, see BENCH_live_throughput.json). The queues stay
// near-empty, which is the point of the pacing axis; only the beacon
// bursts (identical-timestamp clusters, released at once) queue.
constexpr double kPacedSpeed = 500'000.0;

struct LatResult {
  obs::LatSnapshot e2e;
  obs::LatSnapshot queue_wait;
  obs::LatSnapshot fanout;
  double wall_s = 0.0;
};

obs::LatSnapshot stage_snapshot(const char* name) {
  return obs::LatRegistry::global().get(name).snapshot();
}

LatResult run_config(const scenarios::LongLived2024Output& data,
                     std::size_t shards, std::size_t subscribers,
                     double speed) {
  live::LiveConfig config;
  config.shards = shards;
  config.block_on_full = true;
  live::LiveService service(config);
  service.start();
  for (const auto& event : data.events) service.expect(event);

  obs::HttpServer http;
  service.attach_http(http);
  if (!http.start(0)) {
    std::fprintf(stderr, "error: cannot bind an ephemeral HTTP port\n");
    service.stop();
    return {};
  }
  std::vector<std::unique_ptr<live::LoopbackLatencyClient>> clients;
  for (std::size_t i = 0; i < subscribers; ++i) {
    auto client = std::make_unique<live::LoopbackLatencyClient>(http.port());
    if (client->start()) clients.push_back(std::move(client));
  }

  // The registry histograms are process-cumulative; diff around the
  // run so each configuration reports only its own samples.
  const obs::LatSnapshot e2e_before = stage_snapshot("live.e2e");
  const obs::LatSnapshot wait_before = stage_snapshot("live.queue_wait");
  const obs::LatSnapshot fanout_before = stage_snapshot("live.fanout");

  const auto start = std::chrono::steady_clock::now();
  live::ReplayFeedSource feed(data.updates, speed);
  feed.run(service);
  service.finalize();

  // Delivery is event-driven (publish wakes the serving loop through
  // its self-pipe), but the tail still needs a beat to drain: wait
  // until no subscriber has recorded a new sample for a few checks.
  auto total_samples = [&clients] {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->samples();
    return n;
  };
  std::uint64_t last = total_samples();
  for (int quiet = 0, spins = 0; quiet < 3 && spins < 40; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t now_n = total_samples();
    quiet = now_n == last ? quiet + 1 : 0;
    last = now_n;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  LatResult r;
  r.e2e = stage_snapshot("live.e2e").diff_since(e2e_before);
  r.queue_wait = stage_snapshot("live.queue_wait").diff_since(wait_before);
  r.fanout = stage_snapshot("live.fanout").diff_since(fanout_before);
  r.wall_s = wall;
  for (auto& client : clients) client->stop();
  http.stop();
  service.stop();
  return r;
}

void print_table() {
  bench::print_header(
      "zslive delivery latency — ingest stamp to SSE subscriber read-back",
      "live detection service (§6 real-time detection at scale)");
  const auto data = bench::load_longlived2024();
  std::printf("  %zu update records, %zu beacon events\n",
              data.updates.size(), data.events.size());
  std::printf("\n  %-7s %5s %-6s %8s %12s %12s %12s %12s\n", "shards", "subs",
              "pacing", "samples", "e2e p50 ms", "e2e p99 ms", "wait p50 us",
              "fan p50 us");

  auto& registry = obs::Registry::global();
  for (const double speed : {0.0, kPacedSpeed}) {
    const char* pacing = speed <= 0.0 ? "max" : "paced";
    for (const std::size_t shards : {1u, 4u}) {
      for (const std::size_t subs : {2u, 8u}) {
        const LatResult r = run_config(data, shards, subs, speed);
        std::printf("  %-7zu %5zu %-6s %8llu %12.3f %12.3f %12.1f %12.1f\n",
                    shards, subs, pacing,
                    static_cast<unsigned long long>(r.e2e.count),
                    r.e2e.quantile_ns(0.50) * 1e-6,
                    r.e2e.quantile_ns(0.99) * 1e-6,
                    r.queue_wait.quantile_ns(0.50) * 1e-3,
                    r.fanout.quantile_ns(0.50) * 1e-3);
        const std::string suffix = "_s" + std::to_string(shards) + "x" +
                                   std::to_string(subs) + "_" + pacing;
        registry.gauge("zs_bench_lat_e2e_p50_us" + suffix)
            .set(static_cast<std::int64_t>(r.e2e.quantile_ns(0.50) * 1e-3));
        registry.gauge("zs_bench_lat_e2e_p99_us" + suffix)
            .set(static_cast<std::int64_t>(r.e2e.quantile_ns(0.99) * 1e-3));
        registry.gauge("zs_bench_lat_e2e_samples" + suffix)
            .set(static_cast<std::int64_t>(r.e2e.count));
      }
    }
  }
  std::printf("\n  (e2e = feed ingest stamp -> SSE byte read back by the\n"
              "   in-process subscriber; delivery is event-driven — each\n"
              "   publish wakes the serving loop through a self-pipe.)\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
