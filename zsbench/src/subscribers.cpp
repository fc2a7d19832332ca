#include "subscribers.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <string_view>

#include "spans.hpp"
#include "sysstat.hpp"

namespace zsbench {

namespace {

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("zsbench: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw std::runtime_error("zsbench: connect to port " + std::to_string(port) + " failed");
  }
  return fd;
}

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("zsbench: send failed");
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

std::string request(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
}

}  // namespace

// --- FrameScanner ----------------------------------------------------

void FrameScanner::feed(const char* data, std::size_t size, std::uint64_t read_ns) {
  partial_.append(data, size);
  std::size_t start = 0;
  for (std::size_t nl = partial_.find('\n'); nl != std::string::npos;
       nl = partial_.find('\n', start)) {
    line(std::string_view(partial_).substr(start, nl - start), read_ns);
    start = nl + 1;
  }
  partial_.erase(0, start);
}

void FrameScanner::line(std::string_view text, std::uint64_t read_ns) {
  if (text.starts_with("event:")) {
    ++frames_;
  } else if (text.starts_with(": missed ")) {
    missed_ += std::stoull(std::string(text.substr(9)));
  } else if (text.starts_with("data:")) {
    constexpr std::string_view kKey = "\"ingest_ns\":";
    const std::size_t at = text.find(kKey);
    if (at == std::string_view::npos) return;
    std::uint64_t stamp = 0;
    for (std::size_t i = at + kKey.size(); i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i)
      stamp = stamp * 10 + static_cast<std::uint64_t>(text[i] - '0');
    if (stamp != 0 && read_ns >= stamp)
      latency_ms_.push_back(static_cast<double>(read_ns - stamp) * 1e-6);
  }
}

// --- SseSubscriber ---------------------------------------------------

SseSubscriber::SseSubscriber(std::uint16_t port, const std::string& path)
    : fd_(connect_local(port)) {
  send_all(fd_, request(path));
  std::string head;
  for (;;) {
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd_);
      throw std::runtime_error("zsbench: SSE subscription closed before headers");
    }
    head.append(buf, static_cast<std::size_t>(n));
    const std::size_t end = head.find("\r\n\r\n");
    if (end == std::string::npos) continue;
    if (!head.starts_with("HTTP/1.1 200")) {
      ::close(fd_);
      throw std::runtime_error("zsbench: SSE subscription refused");
    }
    early_ = head.substr(end + 4);
    break;
  }
  thread_ = std::thread([this] { loop(); });
}

void SseSubscriber::loop() {
  if (!early_.empty()) scanner_.feed(early_.data(), early_.size(), now_ns());
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    scanner_.feed(buf, static_cast<std::size_t>(n), now_ns());
    frames_.store(scanner_.frames(), std::memory_order_release);
  }
  cpu_s_ = thread_cpu_s();
}

void SseSubscriber::stop() {
  if (!thread_.joinable()) return;
  ::shutdown(fd_, SHUT_RDWR);
  thread_.join();
  ::close(fd_);
}

// --- http_get / SnapshotPoller ---------------------------------------

std::size_t http_get(std::uint16_t port, const std::string& path) {
  const int fd = connect_local(port);
  std::string response;
  try {
    send_all(fd, request(path));
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) throw std::runtime_error("zsbench: recv failed");
      if (n == 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  const std::size_t end = response.find("\r\n\r\n");
  if (!response.starts_with("HTTP/1.1 200") || end == std::string::npos)
    throw std::runtime_error("zsbench: GET " + path + " failed");
  return response.size() - end - 4;
}

SnapshotPoller::SnapshotPoller(std::uint16_t port, std::string path, int period_ms)
    : port_(port), path_(std::move(path)), period_ms_(period_ms) {
  thread_ = std::thread([this] {
    const auto period = std::chrono::milliseconds(period_ms_);
    auto next = std::chrono::steady_clock::now();
    while (!stop_.load(std::memory_order_acquire)) {
      next += period;
      const auto now = std::chrono::steady_clock::now();
      if (now > next) next = now;  // one call at a time: no catch-up burst
      std::this_thread::sleep_until(next);
      if (stop_.load(std::memory_order_acquire)) break;
      const std::uint64_t start = now_ns();
      try {
        const std::size_t size = http_get(port_, path_);
        round_trip_ms_.push_back(static_cast<double>(now_ns() - start) * 1e-6);
        bytes_.push_back(static_cast<double>(size));
      } catch (const std::exception&) {
        ++failures_;
      }
    }
    cpu_s_ = thread_cpu_s();
  });
}

void SnapshotPoller::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

}  // namespace zsbench
