// live/loopback.hpp — the end-to-end delivery-latency self-subscriber.
//
// Stage histograms (live/service.hpp) time each pipeline hop in
// isolation; this closes the loop. A LoopbackLatencyClient opens a
// real TCP connection to the service's own HTTP port, subscribes to
// /live/events like any external consumer, and scans the SSE byte
// stream for the `"ingest_ns":<steady-ns>` field the shard workers
// embed in every transition. The difference between *now* and that
// stamp is the true end-to-end delivery latency — feed read, queueing,
// detection, SSE framing, kernel socket round-trip, client read —
// recorded into the "live.e2e" LatRegistry histogram (and the
// zs_live_stage_seconds_e2e registry histogram), surfaced through
// /latency, /live/stats "stages", and BENCH_live_latency.json.
//
// The comparison is only valid because subscriber and publisher share
// one process (steady_clock stamps are process-comparable, wall clock
// skew is not involved). zslived starts one automatically when it
// serves HTTP; the delivery-latency bench starts several to model
// fanout load.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/lathist.hpp"
#include "obs/metrics.hpp"

namespace zombiescope::live {

class LoopbackLatencyClient {
 public:
  /// Prepares a subscriber for 127.0.0.1:`port``target` (the target
  /// must be an SSE endpoint emitting ingest_ns fields, normally
  /// "/live/events"). Call start() after the HTTP server is serving.
  explicit LoopbackLatencyClient(std::uint16_t port,
                                 std::string target = "/live/events");
  ~LoopbackLatencyClient();
  LoopbackLatencyClient(const LoopbackLatencyClient&) = delete;
  LoopbackLatencyClient& operator=(const LoopbackLatencyClient&) = delete;

  /// Connects and spawns the reader thread. Returns false if the
  /// connection could not be established (no thread started).
  bool start();
  /// Shuts the socket down and joins the reader. Idempotent.
  void stop();

  /// Transition events whose ingest_ns was parsed and recorded.
  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }
  /// Total bytes of SSE stream consumed (headers included).
  std::uint64_t bytes_read() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  void reader_loop();
  void scan(const char* data, std::size_t len);

  std::uint16_t port_;
  std::string target_;
  int fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> bytes_{0};

  // Incremental `"ingest_ns":<digits>` scanner state: a chunk (or TCP
  // segment) boundary can split the key or the number anywhere, so the
  // matcher carries how far into the key it is and any digits already
  // seen across scan() calls.
  std::size_t key_matched_ = 0;
  bool in_number_ = false;
  std::uint64_t number_ = 0;

  obs::LatHist* e2e_ = nullptr;  // "live.e2e" (null when compiled out)
  obs::Histogram m_e2e_seconds_;
};

}  // namespace zombiescope::live
