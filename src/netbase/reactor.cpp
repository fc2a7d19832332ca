#include "netbase/reactor.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cstring>
#include <stdexcept>

namespace zombiescope::netbase {

namespace {

// The most one turn reads from a connection; sent output is also
// dropped from the front of a buffer once this much has accumulated.
constexpr std::size_t kReadChunk = 64 * 1024;

bool would_block() { return errno == EAGAIN || errno == EWOULDBLOCK; }

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

struct AddrInfoFree {
  void operator()(addrinfo* ai) const { ::freeaddrinfo(ai); }
};
using AddrInfo = std::unique_ptr<addrinfo, AddrInfoFree>;

AddrInfo resolve(const std::string& host, std::uint16_t port, int flags) {
  addrinfo hints{};
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = flags;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res) != 0)
    return nullptr;
  return AddrInfo(res);
}

}  // namespace

struct Reactor::Conn {
  Conn(ConnId conn_id, int conn_fd) : id(conn_id), fd(conn_fd) {}

  ConnId id;
  int fd;
  std::string out;  // bytes from out_off on are unsent
  std::size_t out_off = 0;
  bool connecting = false;  // a dial in flight
  bool eof = false;         // the peer finished sending
  bool finishing = false;   // close once out drains
  std::optional<Closed> closed;  // ended; on_close() at the next reap
  std::optional<Clock::time_point> stalled_since;

  std::size_t unsent() const { return out.size() - out_off; }
};

Reactor::Reactor(std::size_t max_output) : max_output_(max_output) {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0)
    throw std::runtime_error("reactor: cannot create the wake pipe");
  wake_rd_ = fds[0];
  wake_wr_ = fds[1];
}

Reactor::~Reactor() {
  for (const auto& conn : conns_) ::close(conn->fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_rd_);
  ::close(wake_wr_);
}

bool Reactor::listen(std::uint16_t port) {
  if (listen_fd_ >= 0) return false;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};  // 0.0.0.0
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, static_cast<int>(kMaxConnections)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return true;
}

Reactor::Conn* Reactor::find(ConnId id) const {
  for (const auto& conn : conns_)
    if (conn->id == id) return conn.get();
  return nullptr;
}

void Reactor::end(Conn& conn, Closed why) {
  if (conn.closed) return;
  conn.closed = why;
  reap_due_ = true;
}

Reactor::ConnId Reactor::dial(const std::string& host, std::uint16_t port) {
  const AddrInfo ai = resolve(host, port, AI_NUMERICHOST);
  if (!ai || conns_.size() >= kMaxConnections) return 0;
  const int fd = ::socket(ai->ai_family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  set_nodelay(fd);
  // Completion, even at once, is left to the next poll so on_open()
  // never runs inside the owner's dial() call.
  Conn& conn = *conns_.emplace_back(std::make_unique<Conn>(next_id_++, fd));
  conn.connecting = true;
  if (::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0 && errno != EINPROGRESS)
    end(conn, Closed::kConnectFailed);
  return conn.id;
}

void Reactor::send(ConnId id, std::string_view bytes) {
  Conn* conn = find(id);
  if (conn == nullptr || conn->closed || conn->finishing) return;
  if (conn->unsent() + bytes.size() > max_output_) return end(*conn, Closed::kOverflow);
  const bool backlog = conn->unsent() > 0;  // then the socket is full
  conn->out.append(bytes);
  if (!backlog && !conn->connecting) flush(*conn);
}

void Reactor::close(ConnId id) {
  if (Conn* conn = find(id)) end(*conn, Closed::kByOwner);
}

void Reactor::finish(ConnId id, std::string_view last) {
  Conn* conn = find(id);
  if (conn == nullptr || conn->closed) return;
  conn->out.append(last);
  conn->finishing = true;
  if (!conn->connecting) flush(*conn);
}

std::size_t Reactor::unsent(ConnId id) const {
  const Conn* conn = find(id);
  return conn == nullptr ? 0 : conn->unsent();
}

std::optional<Reactor::Clock::time_point> Reactor::stalled_since(ConnId id) const {
  const Conn* conn = find(id);
  return conn == nullptr ? std::nullopt : conn->stalled_since;
}

IpAddress Reactor::peer_address(ConnId id) const {
  const Conn* conn = find(id);
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  if (conn == nullptr || ::getpeername(conn->fd, reinterpret_cast<sockaddr*>(&ss), &len) != 0)
    return IpAddress::v4(0);
  if (ss.ss_family == AF_INET6) {
    std::array<std::uint8_t, 16> bytes{};
    std::memcpy(bytes.data(), reinterpret_cast<const sockaddr_in6*>(&ss)->sin6_addr.s6_addr,
                bytes.size());
    return IpAddress::v6(bytes);
  }
  return IpAddress::v4(ntohl(reinterpret_cast<const sockaddr_in*>(&ss)->sin_addr.s_addr));
}

void Reactor::stop() {
  stop_.store(true, std::memory_order_relaxed);
  wake();
}

void Reactor::wake() {
  // A full pipe already holds a pending wake-up.
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &byte, 1);
}

void Reactor::flush(Conn& conn) {
  bool progress = false;
  while (conn.unsent() > 0) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off, conn.unsent(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      progress = true;
    } else if (n < 0 && would_block()) {
      break;
    } else if (n == 0 || errno != EINTR) {
      return end(conn, Closed::kError);
    }
  }
  if (conn.unsent() > 0) {
    if (progress || !conn.stalled_since) conn.stalled_since = Clock::now();
    if (conn.out_off >= kReadChunk) {
      conn.out.erase(0, conn.out_off);
      conn.out_off = 0;
    }
    return;
  }
  conn.out.clear();
  conn.out_off = 0;
  conn.stalled_since.reset();
  if (conn.finishing) {
    ::shutdown(conn.fd, SHUT_WR);
    end(conn, Closed::kByOwner);
  }
}

void Reactor::accept_all(Handler& handler) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0 && (errno == EINTR || errno == ECONNABORTED)) continue;
    if (fd < 0) return;  // EAGAIN, or out of descriptors until one closes
    if (conns_.size() >= kMaxConnections) {
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    conns_.push_back(std::make_unique<Conn>(next_id_++, fd));
    handler.on_open(conns_.back()->id);
  }
}

void Reactor::reap(Handler& handler) {
  reap_due_ = false;
  for (std::size_t i = 0; i < conns_.size();) {
    if (!conns_[i]->closed) {
      ++i;
      continue;
    }
    handler.on_close(conns_[i]->id, *conns_[i]->closed);
    ::close(conns_[i]->fd);
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void Reactor::run(Handler& handler) {
  char buf[kReadChunk];
  Clock::time_point deadline = Clock::now();  // the owner's first turn is due
  while (!stop_.load(std::memory_order_relaxed)) {
    pfds_.assign({{wake_rd_, POLLIN, 0}, {listen_fd_, POLLIN, 0}});  // -1 is skipped
    for (const auto& conn : conns_) {
      short events = conn->connecting ? POLLOUT : 0;
      if (!conn->connecting && !conn->eof) events |= POLLIN;
      if (!conn->connecting && conn->unsent() > 0) events |= POLLOUT;
      pfds_.push_back({conn->closed ? -1 : conn->fd, events, 0});
    }
    int timeout = -1;
    if (reap_due_ || deadline <= Clock::now()) {
      timeout = 0;
    } else if (deadline != Clock::time_point::max()) {
      const auto ms = std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
      timeout = static_cast<int>(std::min<std::int64_t>(ms.count(), INT_MAX));
    }
    ::poll(pfds_.data(), pfds_.size(), timeout);  // EINTR: no revents, timers run
    if (stop_.load(std::memory_order_relaxed)) break;

    if ((pfds_[0].revents & POLLIN) != 0)
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    // Connections added by callbacks are polled from the next turn on.
    const std::size_t polled = pfds_.size() - 2;
    for (std::size_t i = 0; i < polled; ++i) {
      Conn& conn = *conns_[i];
      const short revents = pfds_[i + 2].revents;
      if (conn.closed || revents == 0) continue;
      if (conn.connecting) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0 || (revents & (POLLERR | POLLHUP)) != 0) {
          end(conn, Closed::kConnectFailed);
          continue;
        }
        conn.connecting = false;
        handler.on_open(conn.id);
        if (!conn.closed) flush(conn);
        continue;
      }
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        ssize_t n;
        do {
          n = ::recv(conn.fd, buf, sizeof(buf), 0);
        } while (n < 0 && errno == EINTR);
        if (n > 0) {
          handler.on_data(conn.id, std::string_view(buf, static_cast<std::size_t>(n)));
        } else if (n == 0) {
          conn.eof = true;
          if (!conn.finishing) end(conn, Closed::kPeer);
        } else if (!would_block()) {
          end(conn, Closed::kError);
        }
      }
      if (!conn.closed && (revents & POLLOUT) != 0) flush(conn);
    }
    if ((pfds_[1].revents & POLLIN) != 0) accept_all(handler);
    if (reap_due_) reap(handler);
    deadline = handler.on_turn(Clock::now());
  }

  // Index loop: an on_close() may still dial.
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    handler.on_close(conns_[i]->id, conns_[i]->closed.value_or(Closed::kStopped));
    ::close(conns_[i]->fd);
  }
  conns_.clear();
  reap_due_ = false;
}

// --- blocking clients ------------------------------------------------

int connect_tcp(const std::string& host, std::uint16_t port, int recv_timeout_ms) {
  const AddrInfo res = resolve(host, port, 0);
  for (const addrinfo* ai = res.get(); ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (fd < 0) continue;
    const timeval tv{recv_timeout_ms / 1000, (recv_timeout_ms % 1000) * 1000};
    if (recv_timeout_ms > 0) ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      set_nodelay(fd);
      return fd;
    }
    ::close(fd);
  }
  return -1;
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes.remove_prefix(static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      return false;
    }
  }
  return true;
}

std::ptrdiff_t recv_some(int fd, char* buf, std::size_t size, bool wait) {
  ssize_t n;
  do {
    n = ::recv(fd, buf, size, wait ? 0 : MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  return n;
}

}  // namespace zombiescope::netbase
