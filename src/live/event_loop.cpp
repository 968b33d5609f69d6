#include "live/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
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

}  // namespace

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
