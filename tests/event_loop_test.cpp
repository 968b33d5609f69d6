// Tests for the live services' epoll reactor: readiness dispatch, the idle
// sweep, failure isolation, and stop()/start() around an idle loop.
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "live/event_loop.hpp"
#include "util/assert.hpp"

namespace sharegrid::live {

/// Runs the idle sweep at a chosen time, so sweep tests need not wait out
/// kIdleTimeoutMs.
struct EventLoopTestPeer {
  static void sweep(EventLoop& loop, std::int64_t now_ms) { loop.sweep(now_ms); }
  static std::int64_t last_ready_ms(const EventLoop::Handler& handler) {
    return handler.last_ready_ms_;
  }
};

namespace {

using Clock = std::chrono::steady_clock;
using Peer = EventLoopTestPeer;

/// Drains its socket on every wake-up and counts wake-ups and idle calls.
class CountingHandler final : public EventLoop::Handler {
 public:
  void on_ready(int fd, std::uint32_t) override {
    char buffer[64];
    while (::read(fd, buffer, sizeof buffer) > 0) {
    }
    ++ready;
  }
  void on_idle() override { ++idle; }
  void on_failure() override { ++failures; }

  std::atomic<int> ready{0};
  std::atomic<int> idle{0};
  std::atomic<int> failures{0};
};

/// Throws from every callback; on failure stops watching its fd, as a
/// service drops the connection.
class ThrowingHandler final : public EventLoop::Handler {
 public:
  ThrowingHandler(EventLoop* loop, int fd) : loop_(loop), fd_(fd) {}

  void on_ready(int, std::uint32_t) override {
    throw ContractViolation("plan failed");
  }
  void on_idle() override { throw ContractViolation("plan failed"); }
  void on_failure() override {
    ++failures;
    loop_->unwatch(fd_);
  }

  std::atomic<int> failures{0};

 private:
  EventLoop* loop_;
  int fd_;
};

/// A connected, non-blocking AF_UNIX stream pair.
struct SocketPair {
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
    watched = Fd(fds[0]);
    peer = Fd(fds[1]);
  }
  void poke() const { EXPECT_EQ(::write(peer.get(), "x", 1), 1); }

  Fd watched;
  Fd peer;
};

/// Polls @p done every millisecond for up to two seconds.
template <class Predicate>
bool eventually(Predicate done) {
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(EventLoop, DispatchesReadinessToTheWatchingHandler) {
  const SocketPair pair;
  CountingHandler handler;
  EventLoop loop;
  loop.watch(pair.watched.get(), EPOLLIN, &handler);
  loop.start();
  pair.poke();
  EXPECT_TRUE(eventually([&] { return handler.ready.load() >= 1; }));
  loop.stop();
  EXPECT_EQ(handler.idle.load(), 0);
  EXPECT_EQ(handler.failures.load(), 0);
}

TEST(EventLoop, SweepCallsOnIdleOnlyAfterTheTimeout) {
  const SocketPair pair;
  CountingHandler handler;
  EventLoop loop;
  loop.watch(pair.watched.get(), EPOLLIN, &handler);
  const std::int64_t watched_at = Peer::last_ready_ms(handler);

  Peer::sweep(loop, watched_at + kIdleTimeoutMs - 1);
  EXPECT_EQ(handler.idle.load(), 0);
  Peer::sweep(loop, watched_at + kIdleTimeoutMs);
  EXPECT_EQ(handler.idle.load(), 1);
}

TEST(EventLoop, ReadinessPostponesTheIdleSweep) {
  const SocketPair pair;
  CountingHandler handler;
  EventLoop loop;
  loop.watch(pair.watched.get(), EPOLLIN, &handler);
  const std::int64_t watched_at = Peer::last_ready_ms(handler);
  loop.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pair.poke();
  ASSERT_TRUE(eventually([&] { return handler.ready.load() >= 1; }));
  loop.stop();  // joins the loop thread: the stamp is safe to read

  // The sweep measures quiet time from the last readiness, not the watch.
  EXPECT_GE(Peer::last_ready_ms(handler), watched_at + 20);
  EXPECT_EQ(handler.idle.load(), 0);
}

TEST(EventLoop, AThrowingHandlerCostsOnlyItsOwnFd) {
  const SocketPair failing;
  const SocketPair healthy;
  EventLoop loop;
  ThrowingHandler thrower(&loop, failing.watched.get());
  CountingHandler counter;
  loop.watch(failing.watched.get(), EPOLLIN, &thrower);
  loop.watch(healthy.watched.get(), EPOLLIN, &counter);
  loop.start();

  failing.poke();
  ASSERT_TRUE(eventually([&] { return thrower.failures.load() == 1; }));
  healthy.poke();
  EXPECT_TRUE(eventually([&] { return counter.ready.load() >= 1; }));
  loop.stop();
  EXPECT_EQ(thrower.failures.load(), 1);  // unwatched on its first failure
  EXPECT_EQ(counter.failures.load(), 0);
}

TEST(EventLoop, AThrowingIdleCallbackReachesOnFailure) {
  const SocketPair pair;
  EventLoop loop;
  ThrowingHandler thrower(&loop, pair.watched.get());
  loop.watch(pair.watched.get(), EPOLLIN, &thrower);
  Peer::sweep(loop, Peer::last_ready_ms(thrower) + kIdleTimeoutMs);
  EXPECT_EQ(thrower.failures.load(), 1);
}

TEST(EventLoop, StopWakesAnIdleLoopAndStartResumes) {
  const SocketPair pair;
  CountingHandler handler;
  EventLoop loop;
  loop.watch(pair.watched.get(), EPOLLIN, &handler);
  loop.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto begin = Clock::now();
  loop.stop();
  EXPECT_LT(Clock::now() - begin, std::chrono::milliseconds(100));
  loop.stop();  // idempotent

  // stop() forgot the watch; watching again and restarting delivers anew.
  loop.watch(pair.watched.get(), EPOLLIN, &handler);
  loop.start();
  pair.poke();
  EXPECT_TRUE(eventually([&] { return handler.ready.load() >= 1; }));
  loop.stop();
}

}  // namespace
}  // namespace sharegrid::live
