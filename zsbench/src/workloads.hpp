// zsbench/src/workloads.hpp — the four workloads, each a repeatable
// pass over the seeded inputs that drives the library's public API the
// way zsdetect and zslived do, and checks the pass's output.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "mrt/record.hpp"
#include "netbase/ip.hpp"
#include "spans.hpp"

namespace zsbench {

using PairList =
    std::vector<std::pair<zombiescope::netbase::Prefix, zombiescope::zombie::PeerKey>>;

enum class Workload { kBatchArchive, kLiveSaturated, kLivePaced, kWireReplay };

/// "batch_archive" etc.; parse returns false for an unknown name.
const char* workload_name(Workload w);
bool parse_workload(const std::string& name, Workload& out);

/// Archive time compression of live_paced: ~15k records/s on average.
inline constexpr double kPacedSpeed = 500'000.0;
/// Shard workers of every live workload.
inline constexpr std::size_t kLiveShards = 2;
/// Period of live_paced's snapshot poller.
inline constexpr int kPollPeriodMs = 10;

/// Everything a pass reads, prepared before any timing.
struct Inputs {
  Archive archive;
  std::string work_dir;  // batch_archive writes its archive files here
  std::vector<zombiescope::mrt::MrtRecord> updates;  // decoded archive
  PairList pairs;  // 90-minute batch ⟨prefix, peer⟩ set of `updates`
  /// Pairs withdrawn exactly at withdraw_time + 90 min. Batch counts
  /// such a withdrawal as in time and the live detector as late, so a
  /// live set may hold these on top of the batch set (seed 23 has one).
  PairList deadline_ties;

  // live_paced: the archive prefix due within the run's window (the
  // first paced_offsets.size() records of `updates`), with each
  // record's due offset from the start of the schedule.
  std::chrono::nanoseconds paced_window{0};
  std::vector<std::chrono::nanoseconds> paced_offsets;
  PairList paced_pairs;

  // wire_replay: the records of the chosen peer sessions.
  std::vector<zombiescope::mrt::MrtRecord> wire;
  PairList wire_pairs;
};

/// The sorted 90-minute batch pair set of `records`
/// (LongLivedZombieDetector::detect, every peer included).
PairList batch_pairs(std::span<const zombiescope::mrt::MrtRecord> records,
                     std::span<const zombiescope::beacon::BeaconEvent> events);

Inputs prepare_inputs(const std::string& dir, double seconds);

/// Empty when a live emerged set matches the batch set: equal, apart
/// from deadline ties the live set may add. Otherwise what differs.
std::string compare_pairs(const PairList& live, const PairList& batch, const PairList& ties);

/// One pass of a workload. Times are wall seconds; `cpu_s` is the
/// process CPU of the pass minus the load generator's own threads.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double records = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ctx_switches = 0;
  std::vector<std::string> errors;  // output mismatches
  std::vector<std::string> report;  // lines for stderr (first pass only)
  /// Per-layer values of a traced pass (spans != nullptr); live_paced
  /// fills its delivery and snapshot-read latencies on every pass.
  std::map<std::string, double> layer;
  double unattributed_pct = 0.0;
};

/// Runs one pass. A non-null `spans` makes it a traced pass: every
/// library call is wrapped in a span and the layer values are filled.
PassResult run_pass(Workload w, const Inputs& in, SpanLog* spans);

/// Time from inputs in memory until the system accepts its first
/// record: the batch tool's archive files written, or a live rig
/// started (service, schedule, HTTP, subscribers, wire handshake). The
/// rig is torn down again, untimed.
double setup_s(Workload w, const Inputs& in);

}  // namespace zsbench
