#include "live/event_loop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "util/assert.hpp"

namespace sharegrid::live {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw ContractViolation("event loop: " + what + ": " + std::strerror(errno));
}

/// Key of the eventfd in epoll_event::data; fd keys carry a generation in
/// the high half and are never all-ones.
constexpr std::uint64_t kWakeKey = ~std::uint64_t{0};

std::uint64_t key(int fd, std::uint32_t generation) {
  return (std::uint64_t{generation} << 32) | static_cast<std::uint32_t>(fd);
}

/// Runs one handler callback; a ContractViolation goes to on_failure().
template <class Callback>
void dispatch(EventLoop::Handler* handler, Callback callback) {
  try {
    callback();
  } catch (const ContractViolation&) {
    handler->on_failure();
  }
}

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
}

Fd listen_loopback() {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) fail("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback(0);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    fail("bind");
  if (::listen(fd.get(), SOMAXCONN) != 0) fail("listen");
  return fd;
}

std::uint16_t local_port(const Fd& listener) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0)
    fail("getsockname");
  return ntohs(addr.sin_port);
}

Fd accept_connection(const Fd& listener) {
  for (;;) {
    const int fd = ::accept4(listener.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      set_nodelay(fd);
      return Fd(fd);
    }
    // EINTR and a connection aborted while queued: try the next one. Any
    // other error (EAGAIN when the queue is empty, or fd exhaustion) ends
    // this round of accepts; the listener stays readable for the next.
    if (errno != EINTR && errno != ECONNABORTED) return Fd();
  }
}

Fd dial_loopback(std::uint16_t port, bool* pending) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return fd;
  set_nodelay(fd.get());
  sockaddr_in addr = loopback(port);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  *pending = rc != 0 && errno == EINPROGRESS;
  if (rc != 0 && !*pending) fd.reset();
  return fd;
}

int connect_error(const Fd& socket) {
  int error = 0;
  socklen_t len = sizeof error;
  if (::getsockopt(socket.get(), SOL_SOCKET, SO_ERROR, &error, &len) != 0)
    return errno;
  return error;
}

EventLoop::EventLoop()
    : epoll_(::epoll_create1(EPOLL_CLOEXEC)), wake_(::eventfd(0, EFD_CLOEXEC)) {
  if (!epoll_.valid()) fail("epoll_create1");
  if (!wake_.valid()) fail("eventfd");
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kWakeKey;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_.get(), &event) != 0)
    fail("epoll_ctl(eventfd)");
}

EventLoop::~EventLoop() { stop(); }

void EventLoop::watch(int fd, std::uint32_t events, Handler* handler) {
  SHAREGRID_EXPECTS(fd >= 0 && handler != nullptr);
  const auto index = static_cast<std::size_t>(fd);
  if (index >= slots_.size()) slots_.resize(index + 1);
  Slot& slot = slots_[index];
  SHAREGRID_EXPECTS(slot.handler == nullptr);
  ++slot.generation;
  epoll_event event{};
  event.events = events;
  event.data.u64 = key(fd, slot.generation);
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &event) != 0)
    fail("epoll_ctl(add)");
  slot.handler = handler;
  handler->last_ready_ms_ = steady_ms();
}

void EventLoop::rewatch(int fd, std::uint32_t events) {
  const Slot& slot = slots_.at(static_cast<std::size_t>(fd));
  SHAREGRID_EXPECTS(slot.handler != nullptr);
  epoll_event event{};
  event.events = events;
  event.data.u64 = key(fd, slot.generation);
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &event) != 0)
    fail("epoll_ctl(mod)");
}

void EventLoop::unwatch(int fd) {
  Slot& slot = slots_.at(static_cast<std::size_t>(fd));
  SHAREGRID_EXPECTS(slot.handler != nullptr);
  slot.handler = nullptr;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::start() {
  SHAREGRID_EXPECTS(!thread_.joinable());
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  if (!thread_.joinable()) return;
  const std::uint64_t one = 1;
  while (::write(wake_.get(), &one, sizeof one) < 0 && errno == EINTR) {
  }
  thread_.join();
  std::uint64_t drained = 0;  // re-arm the eventfd for a later start()
  while (::read(wake_.get(), &drained, sizeof drained) < 0 && errno == EINTR) {
  }
  for (std::size_t fd = 0; fd < slots_.size(); ++fd)
    if (slots_[fd].handler != nullptr) unwatch(static_cast<int>(fd));
}

void EventLoop::run() {
  // The sweep is coarse: a connection is torn down between one and one and
  // a quarter idle timeouts after its last readiness.
  constexpr std::int64_t sweep_ms = kIdleTimeoutMs / 4;
  std::int64_t next_sweep = steady_ms() + sweep_ms;
  epoll_event events[64];
  for (;;) {
    const int n =
        ::epoll_wait(epoll_.get(), events, 64, static_cast<int>(sweep_ms));
    if (n < 0 && errno != EINTR) fail("epoll_wait");
    const std::int64_t now = steady_ms();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t k = events[i].data.u64;
      if (k == kWakeKey) return;  // stop()
      const auto fd = static_cast<std::size_t>(k & 0xffffffffu);
      if (fd >= slots_.size()) continue;
      const Slot& slot = slots_[fd];
      if (slot.handler == nullptr || slot.generation != k >> 32) continue;
      Handler* handler = slot.handler;
      handler->last_ready_ms_ = now;
      dispatch(handler, [&] {
        handler->on_ready(static_cast<int>(fd), events[i].events);
      });
    }
    if (now >= next_sweep) {
      sweep(now);
      next_sweep = now + sweep_ms;
    }
  }
}

void EventLoop::sweep(std::int64_t now_ms) {
  // By index: on_idle() may unwatch any fd, including later ones, and a
  // handler watching two fds is torn down at the first of them.
  for (std::size_t fd = 0; fd < slots_.size(); ++fd) {
    Handler* handler = slots_[fd].handler;
    if (handler != nullptr && now_ms - handler->last_ready_ms_ >= kIdleTimeoutMs)
      dispatch(handler, [handler] { handler->on_idle(); });
  }
}

}  // namespace sharegrid::live
