// Tests for netbase/reactor: the one socket loop under the HTTP server,
// the NDJSON feed and the BGP speaker. Each test drives a Reactor on its
// own thread with a small handler and talks to it over loopback through
// the blocking client helpers.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "netbase/reactor.hpp"

namespace zombiescope::netbase {
namespace {

using Clock = Reactor::Clock;
using ConnId = Reactor::ConnId;

/// Counts lifecycle events; `reply` (if set) answers each on_data and
/// `turn` (if set) supplies on_turn's deadline.
struct TestHandler : Reactor::Handler {
  std::function<void(ConnId, std::string_view)> reply;
  std::function<Clock::time_point(Clock::time_point)> turn;
  std::atomic<int> opened{0};
  std::atomic<int> closed{0};
  std::atomic<int> overflows{0};

  void on_open(ConnId) override { ++opened; }
  void on_data(ConnId id, std::string_view bytes) override {
    if (reply) reply(id, bytes);
  }
  void on_close(ConnId, Reactor::Closed why) override {
    ++closed;
    if (why == Reactor::Closed::kOverflow) ++overflows;
  }
  Clock::time_point on_turn(Clock::time_point now) override {
    return turn ? turn(now) : Clock::time_point::max();
  }
};

/// Runs reactor.run(handler) on a thread; stops and joins on scope exit.
class LoopThread {
 public:
  LoopThread(Reactor& reactor, TestHandler& handler)
      : reactor_(reactor), thread_([&reactor, &handler] { reactor.run(handler); }) {}
  ~LoopThread() {
    reactor_.stop();
    thread_.join();
  }
  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

 private:
  Reactor& reactor_;
  std::thread thread_;
};

bool wait_for(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Reads until end of stream (or the 5 s receive timeout).
std::string read_all(int fd) {
  std::string out;
  char buf[65536];
  std::ptrdiff_t n;
  while ((n = recv_some(fd, buf, sizeof(buf))) > 0)
    out.append(buf, static_cast<std::size_t>(n));
  return out;
}

std::string pattern(std::size_t size) {
  std::string s(size, '\0');
  for (std::size_t i = 0; i < size; ++i) s[i] = static_cast<char>('a' + i % 23);
  return s;
}

TEST(Reactor, ReplyLargerThanTheSendBufferArrivesIntact) {
  // 8 MiB is past the largest send buffer Linux autotunes to (4 MiB),
  // so the reply must be carried across many turns of partial writes.
  const std::string reply = pattern(8 << 20);
  Reactor reactor(/*max_output=*/16 << 20);
  ASSERT_TRUE(reactor.listen(0));
  TestHandler handler;
  handler.reply = [&](ConnId id, std::string_view) {
    reactor.send(id, reply);
    reactor.finish(id);
  };
  LoopThread loop(reactor, handler);

  const int fd = connect_tcp("127.0.0.1", reactor.port(), 5000);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "go\n"));
  const std::string got = read_all(fd);
  ::close(fd);
  EXPECT_EQ(got.size(), reply.size());
  EXPECT_TRUE(got == reply) << "the reply arrived corrupted";
}

TEST(Reactor, HalfClosedClientStillReceivesTheWholeReply) {
  // The client shuts its sending side right after the request, so the
  // reactor reads end of stream while most of the reply is unsent.
  const std::string reply = pattern(8 << 20);
  Reactor reactor;
  ASSERT_TRUE(reactor.listen(0));
  TestHandler handler;
  handler.reply = [&](ConnId id, std::string_view) { reactor.finish(id, reply); };
  LoopThread loop(reactor, handler);

  const int fd = connect_tcp("127.0.0.1", reactor.port(), 5000);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "GET /big\n"));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::string got = read_all(fd);
  ::close(fd);
  EXPECT_EQ(got.size(), reply.size());
  EXPECT_TRUE(got == reply) << "the reply arrived corrupted";
  EXPECT_TRUE(wait_for([&] { return handler.closed.load() == 1; }));
}

TEST(Reactor, OutputPastTheBoundClosesTheConnectionAndIsCounted) {
  Reactor reactor(/*max_output=*/64 * 1024);
  ASSERT_TRUE(reactor.listen(0));
  TestHandler handler;
  std::vector<ConnId> ids;  // loop thread only
  handler.reply = [&](ConnId id, std::string_view) { ids.push_back(id); };
  // Once subscribed, the peer gets 16 KiB every millisecond.
  const std::string chunk(16 * 1024, 'x');
  handler.turn = [&](Clock::time_point now) {
    for (const ConnId id : ids) reactor.send(id, chunk);
    return now + std::chrono::milliseconds(1);
  };
  LoopThread loop(reactor, handler);

  // A client that subscribes and never reads.
  const int fd = connect_tcp("127.0.0.1", reactor.port(), 5000);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  ASSERT_TRUE(send_all(fd, "subscribe\n"));

  EXPECT_TRUE(wait_for([&] { return handler.overflows.load() == 1; }))
      << "a peer that stopped reading was never cut off";
  EXPECT_EQ(handler.closed.load(), 1);
  ::close(fd);
}

TEST(Reactor, SixtyFifthConnectionIsClosedAtAccept) {
  Reactor reactor;
  ASSERT_TRUE(reactor.listen(0));
  TestHandler handler;
  handler.reply = [&](ConnId id, std::string_view bytes) { reactor.send(id, bytes); };
  LoopThread loop(reactor, handler);

  std::vector<int> held;
  for (std::size_t i = 0; i < kMaxConnections; ++i) {
    const int fd = connect_tcp("127.0.0.1", reactor.port(), 5000);
    ASSERT_GE(fd, 0);
    held.push_back(fd);
  }
  ASSERT_TRUE(wait_for([&] {
    return handler.opened.load() == static_cast<int>(kMaxConnections);
  }));

  const int extra = connect_tcp("127.0.0.1", reactor.port(), 5000);
  ASSERT_GE(extra, 0);  // the kernel completes the handshake
  char byte = 0;
  const std::ptrdiff_t got = recv_some(extra, &byte, 1);
  EXPECT_TRUE(got == 0 || (got < 0 && errno == ECONNRESET))
      << "the 65th connection was kept open (recv " << got << ")";
  ::close(extra);
  EXPECT_EQ(handler.opened.load(), static_cast<int>(kMaxConnections));

  // The connections already held are still served.
  ASSERT_TRUE(send_all(held.front(), "ping"));
  char buf[4];
  std::size_t have = 0;
  while (have < sizeof(buf)) {
    const std::ptrdiff_t n = recv_some(held.front(), buf + have, sizeof(buf) - have);
    ASSERT_GT(n, 0);
    have += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(std::string(buf, sizeof(buf)), "ping");
  for (const int fd : held) ::close(fd);
}

TEST(Reactor, StopFromAnotherThreadReturnsPromptlyWhenIdle) {
  Reactor reactor;
  ASSERT_TRUE(reactor.listen(0));
  TestHandler handler;  // no traffic and no deadline: run() sleeps in poll
  std::atomic<bool> returned{false};
  std::thread loop([&] {
    reactor.run(handler);
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_FALSE(returned.load());
  const auto stop_at = Clock::now();
  reactor.stop();
  loop.join();
  const auto elapsed = Clock::now() - stop_at;
  EXPECT_LT(elapsed, std::chrono::milliseconds(20))
      << std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()
      << " us";
}

}  // namespace
}  // namespace zombiescope::netbase
