#include "live/l4_proxy.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <cerrno>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace sharegrid::live {
namespace {

/// Sends as much of @p data as @p to takes now. Returns the bytes sent, or
/// -1 on a hard error (the peer is gone).
ssize_t send_some(const Fd& to, const char* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::send(to.get(), data, size, MSG_NOSIGNAL);
    if (n >= 0) return n;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno != EINTR) return -1;
  }
}

}  // namespace

/// One admitted connection pinned to its backend: a pipe each way. A pipe
/// copies bytes straight from its source socket to its sink; what the sink
/// cannot take yet waits in the pipe, and while it waits the source is not
/// read (backpressure) and the sink is watched for EPOLLOUT. A FIN travels
/// like data: once the source closed and the pipe is empty, the sink's
/// sending side is shut. The relay closes when both FINs have gone through,
/// when either socket fails, or when the idle sweep finds it quiet.
class L4Proxy::Relay final : public EventLoop::Handler {
 public:
  Relay(L4Proxy* proxy, Fd client, Fd backend, bool connected)
      : proxy_(proxy), connected_(connected) {
    client_.socket = std::move(client);
    backend_.socket = std::move(backend);
  }

  int client_fd() const { return client_.socket.get(); }
  bool connected() const { return connected_; }

  /// Starts watching both sockets; watches neither if that fails.
  void watch() {
    watch(client_, interest(client_, up_, down_));
    try {
      watch(backend_, interest(backend_, down_, up_));
    } catch (const ContractViolation&) {
      unwatch(client_);
      throw;
    }
  }

  /// Stops watching whichever sockets are still watched.
  void unwatch() {
    if (client_.watched) unwatch(client_);
    if (backend_.watched) unwatch(backend_);
  }

  void on_ready(int fd, std::uint32_t events) override {
    const bool alive = fd == client_fd()
                           ? ready(client_, backend_, up_, down_, events)
                           : backend_ready(events);
    if (!alive || (up_.shut && down_.shut)) {
      proxy_->close_relay(client_fd());  // destroys *this
      return;
    }
    rewatch();
  }

  void on_idle() override { proxy_->close_relay(client_fd()); }
  void on_failure() override { proxy_->close_relay(client_fd()); }

 private:
  /// One socket of the relay.
  struct Side {
    Fd socket;
    std::uint32_t events = 0;  ///< the mask the loop watches
    bool watched = false;
  };
  /// Bytes on their way from one side to the other.
  struct Pipe {
    std::string pending;  ///< read from the source, not yet sent on
    bool eof = false;     ///< the source sent its FIN
    bool shut = false;    ///< ...and it went on to the sink
  };

  bool backend_ready(std::uint32_t events) {
    if (!connected_) {
      // The dial finished; close_relay() counts a failed one as refused.
      if (connect_error(backend_.socket) != 0) return false;
      connected_ = true;
      ++proxy_->admitted_;
      return send_pending(backend_, up_);
    }
    return ready(backend_, client_, down_, up_, events);
  }

  /// Readiness on @p side, the source of @p in and the sink of @p out.
  /// False when the relay must close.
  bool ready(Side& side, Side& peer, Pipe& in, Pipe& out,
             std::uint32_t events) {
    if (events & EPOLLERR) return false;
    if ((events & EPOLLOUT) && !send_pending(side, out)) return false;
    if (!(events & (EPOLLIN | EPOLLHUP))) return true;
    // A hang-up means both directions of @p side are over: read what is
    // left of it regardless of backpressure.
    const bool hung_up = (events & EPOLLHUP) != 0;
    if (!receive(side, peer, in, hung_up)) return false;
    if (!hung_up) return true;
    // Unless its FIN already went through, @p side died before @p out could
    // deliver to it. Otherwise it has nothing left to do, and since the
    // hang-up cannot be masked, the loop stops watching it.
    if (!out.shut) return false;
    unwatch(side);
    return true;
  }

  /// Reads @p from until it would block, sending straight on to @p to
  /// while it takes bytes and keeping the rest in @p pipe. Stops at the
  /// first byte left pending unless @p drain. False on a hard error.
  bool receive(Side& from, Side& to, Pipe& pipe, bool drain) {
    char buffer[16 * 1024];
    while (!pipe.eof && (drain || pipe.pending.empty())) {
      const ssize_t n = ::recv(from.socket.get(), buffer, sizeof buffer, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0) return false;
      if (n == 0) {
        pipe.eof = true;
        break;
      }
      const auto got = static_cast<std::size_t>(n);
      const ssize_t sent = pipe.pending.empty() && open(to)
                               ? send_some(to.socket, buffer, got)
                               : 0;
      if (sent < 0) return false;
      pipe.pending.append(buffer + sent, got - static_cast<std::size_t>(sent));
    }
    return !open(to) || send_pending(to, pipe);
  }

  /// Sends what @p pipe holds to @p to, then the FIN once the source has
  /// closed and nothing is left. False on a hard error.
  static bool send_pending(Side& to, Pipe& pipe) {
    if (!pipe.pending.empty()) {
      const ssize_t n =
          send_some(to.socket, pipe.pending.data(), pipe.pending.size());
      if (n < 0) return false;
      pipe.pending.erase(0, static_cast<std::size_t>(n));
    }
    if (pipe.eof && pipe.pending.empty() && !pipe.shut) {
      ::shutdown(to.socket.get(), SHUT_WR);
      pipe.shut = true;
    }
    return true;
  }

  /// Whether @p side can take bytes: the backend only once its dial is done.
  bool open(const Side& side) const { return &side != &backend_ || connected_; }

  /// What the loop should report on @p side, the source of @p in and the
  /// sink of @p out.
  std::uint32_t interest(const Side& side, const Pipe& in,
                         const Pipe& out) const {
    if (!open(side)) return EPOLLOUT;  // the dial
    return (in.eof || !in.pending.empty() ? 0u : EPOLLIN) |
           (out.pending.empty() ? 0u : EPOLLOUT);
  }

  void watch(Side& side, std::uint32_t events) {
    proxy_->loop_.watch(side.socket.get(), events, this);
    side.events = events;
    side.watched = true;
  }
  void unwatch(Side& side) {
    proxy_->loop_.unwatch(side.socket.get());
    side.watched = false;
  }

  /// Re-arms whichever watched socket's interest changed.
  void rewatch() {
    rewatch(client_, interest(client_, up_, down_));
    rewatch(backend_, interest(backend_, down_, up_));
  }
  void rewatch(Side& side, std::uint32_t events) {
    if (!side.watched || events == side.events) return;
    proxy_->loop_.rewatch(side.socket.get(), events);
    side.events = events;
  }

  L4Proxy* proxy_;
  Side client_;
  Side backend_;
  bool connected_;
  Pipe up_;    ///< client to backend
  Pipe down_;  ///< backend to client
};

L4Proxy::L4Proxy(const sched::Scheduler* scheduler, Config config)
    : config_(std::move(config)),
      admission_(scheduler, config_.window_usec) {
  SHAREGRID_EXPECTS(scheduler != nullptr);
  SHAREGRID_EXPECTS(!config_.services.empty());
  for (const Service& service : config_.services) {
    SHAREGRID_EXPECTS(service.principal < scheduler->size());
    SHAREGRID_EXPECTS(service.owner < scheduler->size());
    SHAREGRID_EXPECTS(service.backend_port > 0);
  }
}

L4Proxy::~L4Proxy() { stop(); }

void L4Proxy::start() {
  SHAREGRID_EXPECTS(!running_);
  for (std::size_t i = 0; i < config_.services.size(); ++i) {
    listeners_.push_back(listen_loopback());
    loop_.watch(listeners_.back().get(), EPOLLIN, this);
  }
  admission_.reset_clock();
  running_ = true;
  loop_.start();
}

void L4Proxy::stop() {
  if (!running_) return;
  running_ = false;
  loop_.stop();
  relays_.clear();  // clients of open relays read a close
  listeners_.clear();
}

std::uint16_t L4Proxy::service_port(std::size_t index) const {
  SHAREGRID_EXPECTS(index < listeners_.size());
  return local_port(listeners_[index]);
}

void L4Proxy::on_ready(int fd, std::uint32_t) {
  for (std::size_t i = 0; i < listeners_.size(); ++i)
    if (listeners_[i].get() == fd) accept_all(i);
}

void L4Proxy::on_failure() {
  // Admitting or opening one connection threw; unwinding closed it
  // unrelayed.
  ++refused_;
}

void L4Proxy::accept_all(std::size_t service_index) {
  const Service& service = config_.services[service_index];
  for (;;) {
    Fd client = accept_connection(listeners_[service_index]);
    if (!client.valid()) return;
    // The SYN analogue: admit or refuse the whole connection. Closing the
    // socket tells the client to retry.
    if (!admission_.try_admit(service.principal)) {
      ++refused_;
      continue;
    }
    bool pending = false;
    Fd backend = dial_loopback(service.backend_port, &pending);
    if (!backend.valid()) {
      ++refused_;  // backend down
      continue;
    }
    const auto slot = static_cast<std::size_t>(client.get());
    auto relay = std::make_unique<Relay>(this, std::move(client),
                                         std::move(backend), !pending);
    relay->watch();
    if (!pending) ++admitted_;
    if (slot >= relays_.size()) relays_.resize(slot + 1);
    relays_[slot] = std::move(relay);
  }
}

void L4Proxy::close_relay(int client_fd) {
  std::unique_ptr<Relay>& relay = relays_[static_cast<std::size_t>(client_fd)];
  // A relay whose dial never completed (the backend refused, or the client
  // left first) relayed nothing: the client saw only the close.
  if (!relay->connected()) ++refused_;
  relay->unwatch();
  relay.reset();
}

}  // namespace sharegrid::live
