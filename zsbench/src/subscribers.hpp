// zsbench/src/subscribers.hpp — the client side of live_paced: the SSE
// transition subscriber and the snapshot poller. They are the load
// generator's own threads, so each reports the CPU it used and the
// workload subtracts it from the system's CPU.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace zsbench {

/// Line scanner for an SSE byte stream (raw, or HTTP-chunked: chunk
/// size lines match nothing). Counts transition frames, `: missed N`
/// gaps, and turns each frame's `"ingest_ns":` stamp into a delivery
/// latency against the instant its bytes were read.
class FrameScanner {
 public:
  void feed(const char* data, std::size_t size, std::uint64_t read_ns);

  std::uint64_t frames() const { return frames_; }
  std::uint64_t missed() const { return missed_; }
  /// Due-to-read latency of every stamped frame, in ms.
  const std::vector<double>& latency_ms() const { return latency_ms_; }

 private:
  void line(std::string_view text, std::uint64_t read_ns);

  std::string partial_;
  std::uint64_t frames_ = 0;
  std::uint64_t missed_ = 0;
  std::vector<double> latency_ms_;
};

/// HTTP subscriber of GET <path> on 127.0.0.1:port: a reader thread
/// feeding a FrameScanner. The constructor returns once the response
/// headers arrived (the subscription is live); throws
/// std::runtime_error when it cannot connect. Results are read after
/// stop().
class SseSubscriber {
 public:
  SseSubscriber(std::uint16_t port, const std::string& path);
  ~SseSubscriber() { stop(); }
  SseSubscriber(const SseSubscriber&) = delete;
  SseSubscriber& operator=(const SseSubscriber&) = delete;
  void stop();

  std::uint64_t frames() const { return frames_.load(std::memory_order_acquire); }
  const FrameScanner& scanner() const { return scanner_; }
  double cpu_s() const { return cpu_s_; }

 private:
  void loop();

  int fd_ = -1;
  std::string early_;  // stream bytes that arrived with the headers
  FrameScanner scanner_;
  std::atomic<std::uint64_t> frames_{0};
  double cpu_s_ = 0.0;
  std::thread thread_;
};

/// One GET over a fresh connection (the server closes after each
/// response). Returns the body size; throws std::runtime_error.
std::size_t http_get(std::uint16_t port, const std::string& path);

/// GETs 127.0.0.1:port<path> every `period_ms` on its own thread, one
/// request at a time, timing each round trip. Results are read after
/// stop().
class SnapshotPoller {
 public:
  SnapshotPoller(std::uint16_t port, std::string path, int period_ms);
  ~SnapshotPoller() { stop(); }
  SnapshotPoller(const SnapshotPoller&) = delete;
  SnapshotPoller& operator=(const SnapshotPoller&) = delete;
  void stop();

  const std::vector<double>& round_trip_ms() const { return round_trip_ms_; }
  const std::vector<double>& bytes() const { return bytes_; }
  std::uint64_t failures() const { return failures_; }
  double cpu_s() const { return cpu_s_; }

 private:
  std::uint16_t port_;
  std::string path_;
  int period_ms_;
  std::atomic<bool> stop_{false};
  std::vector<double> round_trip_ms_;
  std::vector<double> bytes_;
  std::uint64_t failures_ = 0;
  double cpu_s_ = 0.0;
  std::thread thread_;
};

}  // namespace zsbench
