#include "live/l7_service.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "http/message.hpp"
#include "util/assert.hpp"

namespace sharegrid::live {
namespace {

/// Request heads longer than this are decided on their first 64 KiB.
constexpr std::size_t kMaxHead = 64 * 1024;

}  // namespace

/// One client: reads its request head, then writes the reply and closes.
class L7Service::Connection final : public EventLoop::Handler {
 public:
  Connection(L7Service* service, net::Fd socket)
      : service_(service), socket_(std::move(socket)) {}

  int fd() const { return socket_.get(); }

  void on_ready(int, std::uint32_t) override {
    if (reply_.empty()) {
      if (!read_head()) return;  // the head is not complete yet
      reply_ = service_->respond(head_);
    }
    write_reply();
  }

  /// A quiet client is answered on what it sent so far; a client that
  /// stopped reading its reply is dropped.
  void on_idle() override {
    if (!reply_.empty()) {
      service_->close_connection(fd());  // destroys *this
      return;
    }
    reply_ = service_->respond(head_);
    write_reply();
  }

  /// Deciding the request threw: the client sees a close, no reply.
  void on_failure() override { service_->close_connection(fd()); }

 private:
  /// Reads what has arrived; true once the head is complete: its blank
  /// line arrived, it reached kMaxHead, or the peer closed or failed.
  bool read_head() {
    char chunk[4096];
    while (head_.size() < kMaxHead) {
      const std::size_t want = std::min(sizeof chunk, kMaxHead - head_.size());
      const ssize_t n = ::recv(fd(), chunk, want, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      if (n <= 0) return true;
      // Search only the new bytes plus the three before them that could
      // start a terminator.
      const std::size_t from = head_.size() < 3 ? 0 : head_.size() - 3;
      head_.append(chunk, static_cast<std::size_t>(n));
      if (head_.find("\r\n\r\n", from) != std::string::npos ||
          head_.find("\n\n", from) != std::string::npos)
        return true;
    }
    return true;
  }

  /// Sends what the socket takes; closes once the reply is out or the
  /// client is gone, and otherwise waits for EPOLLOUT.
  void write_reply() {
    while (sent_ < reply_.size()) {
      const ssize_t n = net::send_some(socket_, reply_.data() + sent_,
                                       reply_.size() - sent_);
      if (n < 0) break;  // the client is gone
      if (n == 0) {
        if (!waiting_to_write_) service_->loop_.rewatch(fd(), EPOLLOUT);
        waiting_to_write_ = true;
        return;
      }
      sent_ += static_cast<std::size_t>(n);
    }
    service_->close_connection(fd());  // destroys *this
  }

  L7Service* service_;
  net::Fd socket_;
  std::string head_;
  std::string reply_;  ///< empty until the head is decided
  std::size_t sent_ = 0;
  bool waiting_to_write_ = false;
};

L7Service::L7Service(const sched::Scheduler* scheduler,
                     core::AgreementGraph graph, Config config)
    : graph_(std::move(graph)),
      config_(std::move(config)),
      admission_(scheduler, config_.window_usec) {
  SHAREGRID_EXPECTS(scheduler != nullptr);
  SHAREGRID_EXPECTS(!config_.backends.empty());
  for (const Backend& backend : config_.backends)
    SHAREGRID_EXPECTS(backend.owner < scheduler->size());
}

L7Service::~L7Service() { stop(); }

void L7Service::start() {
  SHAREGRID_EXPECTS(!running_);
  listener_ = net::listen_on();
  port_ = net::local_port(listener_);
  self_host_ = "127.0.0.1:" + std::to_string(port_);
  loop_.watch(listener_.get(), EPOLLIN, this);
  admission_.reset_clock();
  running_ = true;
  loop_.start();
}

void L7Service::stop() {
  if (!running_) return;
  running_ = false;
  loop_.stop();
  connections_.clear();
  listener_.reset();
}

void L7Service::on_ready(int, std::uint32_t) {
  for (;;) {
    net::Fd socket = net::accept_connection(listener_);
    if (!socket.valid()) return;
    const auto slot = static_cast<std::size_t>(socket.get());
    auto connection = std::make_unique<Connection>(this, std::move(socket));
    loop_.watch(static_cast<int>(slot), EPOLLIN, connection.get());
    if (slot >= connections_.size()) connections_.resize(slot + 1);
    connections_[slot] = std::move(connection);
  }
}

void L7Service::on_failure() {
  // Watching one new connection threw; unwinding closed it.
}

void L7Service::close_connection(int fd) {
  loop_.unwatch(fd);
  connections_[static_cast<std::size_t>(fd)].reset();
}

std::string L7Service::respond(const std::string& head) {
  const auto request = http::parse_request(head);
  if (!request) {
    ++bad_requests_;
    http::Response bad;
    bad.status = 400;
    bad.reason = "Bad Request";
    return bad.serialize();
  }
  const auto principal_name = http::principal_from_target(request->target);
  const core::PrincipalId principal =
      principal_name ? graph_.find(*principal_name) : core::kNoPrincipal;
  if (principal == core::kNoPrincipal) {
    ++bad_requests_;
    http::Response missing;
    missing.status = 404;
    missing.reason = "Unknown Principal";
    return missing.serialize();
  }

  const auto owner = admission_.try_admit(principal);
  // Pick any backend owned by the principal the plan routed to. The plan
  // can only route to resource owners, and every owner with capacity has a
  // backend in a well-formed config; self-redirect if not
  // (misconfiguration, not a scheduling failure).
  const auto chosen =
      owner ? std::find_if(config_.backends.begin(), config_.backends.end(),
                           [&](const Backend& b) { return b.owner == *owner; })
            : config_.backends.end();
  if (chosen == config_.backends.end()) {
    ++self_redirected_;
    return http::make_self_redirect(*request, self_host_).serialize();
  }
  ++admitted_;
  return http::make_server_redirect(*request, chosen->host_port).serialize();
}

}  // namespace sharegrid::live
