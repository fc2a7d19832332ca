// netbase/reactor.hpp — the one socket loop, and the blocking client
// helpers beside it.
//
// A Reactor owns a listening socket, the connections it accepts or dials
// (at most kMaxConnections), a wake-up pipe and a bounded output buffer
// per connection. Its owner (the HTTP/SSE server, the NDJSON feed, the
// BGP speaker) implements Handler and keeps every protocol rule; the
// reactor keeps the socket rules: non-blocking I/O, EINTR and EAGAIN,
// partial writes carried across turns, half-close, resets and limits.
//
// One turn of run() is one poll(2); then at most one 64 KiB read per
// ready connection, pending writes, accepts, on_close() for
// what ended, and on_turn(), whose returned instant bounds the next
// sleep. Nothing else wakes the loop but I/O and wake()/stop(), the only
// members other threads may call.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netbase/ip.hpp"

struct pollfd;

namespace zombiescope::netbase {

/// Connections one Reactor holds; past it an accept is closed at once
/// and dial() refuses.
inline constexpr std::size_t kMaxConnections = 64;

class Reactor {
 public:
  using Clock = std::chrono::steady_clock;
  using ConnId = std::uint64_t;
  static constexpr std::size_t kDefaultMaxOutput = 256 * 1024;

  /// Why a connection ended.
  enum class Closed { kByOwner, kPeer, kError, kOverflow, kConnectFailed, kStopped };

  class Handler {
   public:
    /// A connection was accepted, or a dial() connected.
    virtual void on_open(ConnId id) = 0;
    /// Bytes arrived; the view lives for the call only.
    virtual void on_data(ConnId id, std::string_view bytes) = 0;
    /// Called once per connection, whatever ended it (kPeer: the peer
    /// finished sending). Only for kStopped (run() returning) is the
    /// socket still open, so a goodbye send() goes out if it fits.
    virtual void on_close(ConnId id, Closed why) = 0;
    /// After each turn's I/O; returns when the owner next needs a turn,
    /// or Clock::time_point::max().
    virtual Clock::time_point on_turn(Clock::time_point now) = 0;

   protected:
    ~Handler() = default;
  };

  /// Throws std::runtime_error if the wake pipe cannot be made.
  explicit Reactor(std::size_t max_output = kDefaultMaxOutput);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds 0.0.0.0:port (0 = ephemeral); false if it cannot.
  bool listen(std::uint16_t port);
  std::uint16_t port() const { return port_; }

  /// Starts a non-blocking connect to an IP literal; on_open() or
  /// on_close(kConnectFailed) follows. 0 if refused at once.
  ConnId dial(const std::string& host, std::uint16_t port);
  /// Queues bytes and writes what the socket takes now. A send that
  /// would leave more than max_output unsent closes the connection
  /// instead (kOverflow): a peer that stops reading is cut off.
  void send(ConnId id, std::string_view bytes);
  void close(ConnId id);
  /// Queues a final reply of any size (max_output does not apply), then
  /// half-closes and closes once everything is written, even if the
  /// peer has stopped sending. Later sends are dropped.
  void finish(ConnId id, std::string_view last = {});

  std::size_t unsent(ConnId id) const;
  /// Since when unsent output has waited with no byte accepted.
  std::optional<Clock::time_point> stalled_since(ConnId id) const;
  IpAddress peer_address(ConnId id) const;

  /// Turns until stop(); then closes every connection (kStopped).
  void run(Handler& handler);
  void stop();
  void wake();

 private:
  struct Conn;

  Conn* find(ConnId id) const;
  void end(Conn& conn, Closed why);
  void flush(Conn& conn);
  void accept_all(Handler& handler);
  void reap(Handler& handler);

  std::size_t max_output_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::atomic<bool> stop_{false};
  bool reap_due_ = false;  // a connection ended and awaits on_close()
  ConnId next_id_ = 1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<pollfd> pfds_;
};

/// Wire bytes as the char view send() and send_all() take.
inline std::string_view as_chars(std::span<const std::uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// Blocking connect (getaddrinfo: a name or IP literal), TCP_NODELAY
/// set; recv_timeout_ms > 0 bounds each later read. The fd, or -1.
int connect_tcp(const std::string& host, std::uint16_t port, int recv_timeout_ms = 0);
/// Writes every byte to a blocking socket; false once the peer is gone.
bool send_all(int fd, std::string_view bytes);
/// One read: the byte count, 0 at end of stream, -1 on an error, the
/// receive timeout or (wait = false) nothing buffered.
std::ptrdiff_t recv_some(int fd, char* buf, std::size_t size, bool wait = true);

}  // namespace zombiescope::netbase
