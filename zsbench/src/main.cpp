// zsbench — measures one workload over inputs written by zsbench_gen.
//
//   zsbench --workload NAME --inputs DIR --seconds S --trace 0|1
//
// Untraced (--trace 0), the workload's pass repeats for S seconds and
// the end-to-end metrics are medians over passes (latencies pool every
// sample). Traced (--trace 1), one untraced pass of the workload, one
// span-traced pass of every workload and the layer-alone passes give
// the per-layer metrics. Either way the last stdout line is
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and any wrong output makes the exit code 1.

#include <malloc.h>

#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"
#include "obs/causal.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"
#include "sysstat.hpp"
#include "workloads.hpp"

namespace {

using namespace zsbench;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void add(const PassResult& pass) {
    attempted += pass.attempted;
    failed += pass.failed;
    errors.insert(errors.end(), pass.errors.begin(), pass.errors.end());
  }
};

constexpr int kLiveSetupRuns = 10;

double rate(const PassResult& pass) { return pass.records / pass.wall_s; }
double cpu_ms_per_krecord(const PassResult& pass) {
  return pass.cpu_s * 1e3 / (pass.records / 1e3);
}

void measure(Workload w, const Inputs& in, double seconds, Outcome& out) {
  // Set-up is short and noisy, so it repeats on its own (the batch
  // set-up writes files, hence fewer times).
  std::vector<double> setups;
  const int setup_runs = w == Workload::kBatchArchive ? 3 : kLiveSetupRuns;
  for (int i = 0; i < setup_runs; ++i) setups.push_back(setup_s(w, in));
  std::vector<PassResult> passes;
  if (w == Workload::kLivePaced) {
    passes.push_back(run_pass(w, in, nullptr));  // one pass is the whole schedule
  } else {
    (void)run_pass(w, in, nullptr);  // warm-up: allocator and page cache
    const std::uint64_t start = now_ns();
    do {
      passes.push_back(run_pass(w, in, nullptr));
    } while (passes.size() < 3 || static_cast<double>(now_ns() - start) * 1e-9 < seconds);
  }
  std::vector<double> rates;
  std::vector<double> cpus;
  for (const PassResult& pass : passes) {
    out.add(pass);
    rates.push_back(rate(pass));
    cpus.push_back(cpu_ms_per_krecord(pass));
    std::fprintf(stderr, "  pass: %.0f records in %.3f s = %.0f rec/s, %.3f cpu ms/krec\n",
                 pass.records, pass.wall_s, rate(pass), cpu_ms_per_krecord(pass));
  }
  std::fprintf(stderr, "  set-up: median %.4f s of %zu\n", median(setups), setups.size());
  for (const std::string& line : passes.front().report) std::fprintf(stderr, "%s\n", line.c_str());
  out.metrics = {
      {"setup_s", median(setups), "s"},
      {"records_per_s", median(rates), "1/s"},
      {"cpu_ms_per_krecord", median(cpus), "ms"},
  };
}

void trace(Workload w, const Inputs& in, Outcome& out) {
  // Tracing overhead compares the median rate of a few untraced and
  // traced passes of the workload (live_paced's rate is its schedule).
  const int reps = w == Workload::kLivePaced ? 1 : 3;
  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  for (int i = 0; i < reps; ++i) {
    const PassResult untraced = run_pass(w, in, nullptr);
    out.add(untraced);
    untraced_rates.push_back(rate(untraced));
  }
  std::map<std::string, double> layer;
  PassResult traced_w;
  for (const Workload x : {Workload::kBatchArchive, Workload::kLiveSaturated,
                           Workload::kLivePaced, Workload::kWireReplay}) {
    SpanLog spans;
    PassResult traced = run_pass(x, in, &spans);
    out.add(traced);
    layer.insert(traced.layer.begin(), traced.layer.end());
    std::fprintf(stderr, "  traced %s: %zu spans, %.1f%% unattributed\n", workload_name(x),
                 spans.spans().size(), traced.unattributed_pct);
    if (x == w) traced_w = std::move(traced);
  }
  traced_rates.push_back(rate(traced_w));
  for (int i = 1; i < reps; ++i) {
    SpanLog spans;
    const PassResult traced = run_pass(w, in, &spans);
    out.add(traced);
    traced_rates.push_back(rate(traced));
  }
  run_layer_passes(in, layer, out.errors);

  const double records = static_cast<double>(in.updates.size());
  layer["live.service_residual_ns_per_record"] =
      (layer.at("live.shard_busy_sum_s") - layer.at("zombie.realtime_sharded_total_s")) * 1e9 /
      records;
  layer["proc.ctx_switches_per_krecord"] =
      static_cast<double>(traced_w.ctx_switches) / (traced_w.records / 1e3);
  layer["trace.overhead_pct"] =
      100.0 * (median(untraced_rates) - median(traced_rates)) / median(untraced_rates);
  layer["unattributed_pct"] = traced_w.unattributed_pct;
  layer["proc.peak_rss_mb"] = peak_rss_mb();

  static const std::vector<std::pair<const char*, const char*>> kUnits = {
      {"mrt.decode_ns_per_record", "ns"},
      {"bgp.update_decode_ns", "ns"},
      {"bgp.update_encode_ns", "ns"},
      {"zombie.state_apply_ns_per_record", "ns"},
      {"zombie.detect_ms", "ms"},
      {"zombie.sweep_ms", "ms"},
      {"zombie.noisy_filter_ms", "ms"},
      {"zombie.lifespan_ms", "ms"},
      {"zombie.realtime_ns_per_record", "ns"},
      {"zombie.realtime_ns_per_record_q1", "ns"},
      {"zombie.realtime_ns_per_record_q4", "ns"},
      {"live.submit_ns_per_record", "ns"},
      {"live.shard_busy_ns_per_record", "ns"},
      {"live.shard_skew", "ratio"},
      {"live.finalize_ms", "ms"},
      {"live.service_residual_ns_per_record", "ns"},
      {"live.publishes_per_krecord", "count"},
      {"live.queue_wait_p50_us", "us"},
      {"live.queue_wait_p99_us", "us"},
      {"live.zombies_json_us", "us"},
      {"http.sse_frames_per_transition", "ratio"},
      {"http.zombies_get_bytes", "bytes"},
      {"wire.encode_ns_per_msg", "ns"},
      {"wire.frame_decode_ns_per_msg", "ns"},
      {"wire.client_cpu_ns_per_msg", "ns"},
      {"wire.feed_cpu_ns_per_msg", "ns"},
      {"wire.bytes_per_record", "bytes"},
      {"wire.handshake_ms", "ms"},
      {"proc.ctx_switches_per_krecord", "count"},
      {"proc.peak_rss_mb", "MiB"},
      {"gen.late_p99_ms", "ms"},
      {"detect_latency_p50_ms", "ms"},
      {"detect_latency_p99_ms", "ms"},
      {"snapshot_read_p50_ms", "ms"},
      {"snapshot_read_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"unattributed_pct", "%"},
  };
  for (const auto& [name, unit] : kUnits) out.metrics.push_back({name, layer.at(name), unit});
  const double frames = layer.at("http.sse_frames_per_transition");
  if (frames != 1.0)
    out.errors.push_back("http: " + std::to_string(frames) + " SSE frames per transition");
}

void print_result(const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", out.metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + out.metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            out.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload batch_archive|live_saturated|live_paced|wire_replay\n"
               "          --inputs DIR --seconds S --trace 0|1\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Workload workload = Workload::kBatchArchive;
  std::string inputs;
  double seconds = 10.0;
  bool traced = false;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--workload") have_workload = parse_workload(value, workload);
    else if (arg == "--inputs") inputs = value;
    else if (arg == "--seconds") seconds = std::stod(value);
    else if (arg == "--trace") traced = value == "1";
    else usage(argv[0]);
  }
  if (!have_workload || inputs.empty() || seconds <= 0) usage(argv[0]);

  try {
    // The library's own span tracer and causal hop tracer stay off:
    // the benchmark measures the system, not its instrumentation.
    zombiescope::obs::Tracer::global().set_enabled(false);
    zombiescope::obs::causal_set_enabled(false);
    const Inputs in = prepare_inputs(inputs, seconds);
    std::fprintf(stderr, "zsbench %s: %zu records, %zu events; paced window %zu records; "
                         "wire %zu records over %zu sessions\n",
                 workload_name(workload), in.updates.size(), in.archive.events.size(),
                 in.paced_offsets.size(), in.wire.size(), in.archive.wire_peers.size());
    // Peak RSS covers the traced passes, not the input preparation above.
    malloc_trim(0);
    reset_peak_rss();

    Outcome out;
    if (traced) trace(workload, in, out);
    else measure(workload, in, seconds, out);
    for (const std::string& error : out.errors) std::fprintf(stderr, "WRONG OUTPUT: %s\n", error.c_str());
    print_result(out);
    return out.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zsbench: %s\n", e.what());
    return 1;
  }
}
