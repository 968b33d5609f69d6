// One epoll readiness loop on one thread: the I/O core of the live services.
//
// The paper's §4.2 prototype enforces agreements per connection inside an
// LVS/NAT switch, where redirection costs a table lookup, not a thread. The
// live services keep that shape in user space: each service owns one
// EventLoop, accepts and admits on the loop thread, and moves bytes only
// when epoll says a socket is ready. Nothing here blocks: listeners,
// clients and backend dials are all non-blocking, partial writes wait for
// EPOLLOUT, and a coarse idle sweep tears down connections that stay quiet
// past a timeout, so no peer can hold a connection open forever.
//
// Threading: between start() and stop() only the loop thread may call
// watch()/rewatch()/unwatch() or touch the handlers; before start() and
// after stop() the owning thread may. stop() is the only call another
// thread makes while the loop runs.
#pragma once

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace sharegrid::live {

/// Owning file descriptor: closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// A non-blocking listener on 127.0.0.1 at an ephemeral port.
Fd listen_loopback();
/// The port @p listener is bound to.
std::uint16_t local_port(const Fd& listener);
/// Accepts one pending connection as a non-blocking, TCP_NODELAY socket;
/// an invalid Fd when none is pending.
Fd accept_connection(const Fd& listener);
/// Starts a non-blocking dial of 127.0.0.1:@p port. Returns an invalid Fd
/// when the dial failed at once; otherwise *@p pending says whether the
/// handshake is still in flight (wait for EPOLLOUT, then connect_error()).
Fd dial_loopback(std::uint16_t port, bool* pending);
/// Outcome of a finished non-blocking dial: 0 when connected, else errno.
int connect_error(const Fd& socket);

/// How long the live services let a connection stay quiet before the idle
/// sweep tears it down.
constexpr std::int64_t kIdleTimeoutMs = 5000;

/// epoll reactor with per-fd handlers, an eventfd stop signal and an idle
/// sweep.
class EventLoop {
 public:
  /// Receives readiness for the fds watched with it. A handler may watch
  /// several fds (a relay watches both of its sockets); the loop never owns
  /// it.
  class Handler {
   public:
    Handler(const Handler&) = delete;
    Handler& operator=(const Handler&) = delete;

    /// @p events is the epoll mask that fired for @p fd. Level-triggered:
    /// readiness not consumed is reported again.
    virtual void on_ready(int fd, std::uint32_t events) = 0;
    /// Called by the idle sweep once none of the handler's fds has been
    /// ready for kIdleTimeoutMs. The default keeps waiting.
    virtual void on_idle() {}
    /// Called instead of ending the loop when on_ready() or on_idle() threw
    /// ContractViolation (an admission plan that failed, a full epoll set).
    /// A throw costs one connection, as it did when each had its own
    /// thread: the handler drops what it was serving, and the loop goes on
    /// serving every other fd. A handler must not throw after destroying
    /// itself.
    virtual void on_failure() = 0;

   protected:
    Handler() = default;
    ~Handler() = default;

   private:
    friend class EventLoop;
    friend struct EventLoopTestPeer;
    std::int64_t last_ready_ms_ = 0;
  };

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Starts delivering @p events (EPOLLIN / EPOLLOUT) on @p fd to @p handler.
  /// Hang-ups and errors are always delivered. Throws ContractViolation,
  /// watching nothing, when epoll refuses the fd.
  void watch(int fd, std::uint32_t events, Handler* handler);
  /// Changes the event mask of a watched fd.
  void rewatch(int fd, std::uint32_t events);
  /// Stops watching @p fd (call before closing it). Events for it that are
  /// already queued in the current batch are dropped.
  void unwatch(int fd);

  /// Spawns the loop thread.
  void start();
  /// Wakes the loop, joins its thread and forgets every watch; the fds stay
  /// open for their owners to close. Idempotent; start() may follow.
  void stop();

 private:
  friend struct EventLoopTestPeer;  ///< drives sweep() with a fake clock

  void run();
  void sweep(std::int64_t now_ms);

  struct Slot {
    Handler* handler = nullptr;
    /// Bumped by every watch(), and carried in the epoll event, so a
    /// queued event for a closed fd cannot reach the handler of a new
    /// connection that reused the fd number within the same batch.
    std::uint32_t generation = 0;
  };

  Fd epoll_;
  Fd wake_;  ///< eventfd: stop() writes it, the loop returns on it
  std::vector<Slot> slots_;  ///< indexed by fd
  std::thread thread_;       ///< last: run() uses every member above
};

}  // namespace sharegrid::live
