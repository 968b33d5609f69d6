// A live (real-socket) Layer-7 redirector service (§4.1 made concrete).
//
// Runs the same admission logic as the simulated L7 redirector — window
// scheduler, credit-based quotas, 302 redirects — against real HTTP over
// loopback TCP, with wall-clock scheduling windows. One EventLoop thread
// (live/event_loop.hpp) accepts every connection and assembles each request
// head without blocking, so a slow client delays nobody else.
//
// Per request:
//   - read the head up to its blank line (at most 64 KiB; a peer close or
//     the idle timeout ends it early);
//   - parse it; malformed -> 400;
//   - /org/<principal>/... resolves the principal; unknown -> 404;
//   - within quota -> 302 Location: http://<backend>/<target>;
//   - out of quota -> 302 back to this service (implicit queuing: the
//     client is expected to retry, exactly like the paper's WebBench proxy);
//   - write the reply and close.
// A request whose admission throws (a failed plan solve) is closed with no
// reply; the service keeps serving the others.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/agreement_graph.hpp"
#include "live/event_loop.hpp"
#include "live/wall_clock_admission.hpp"

namespace sharegrid::live {

/// Wall-clock Layer-7 redirector over loopback TCP.
class L7Service : private EventLoop::Handler {
 public:
  /// A backend server a principal's requests can be redirected to.
  struct Backend {
    std::string host_port;  ///< e.g. "127.0.0.1:8081" (used in Location)
    core::PrincipalId owner = core::kNoPrincipal;
  };

  struct Config {
    /// Scheduling window in wall-clock microseconds (paper: 100 ms).
    std::int64_t window_usec = 100000;
    std::vector<Backend> backends;
  };

  /// @param scheduler  planning logic (not owned; must outlive the service).
  /// @param graph      used to resolve principal names from URLs (copied).
  L7Service(const sched::Scheduler* scheduler, core::AgreementGraph graph,
            Config config);
  ~L7Service();

  L7Service(const L7Service&) = delete;
  L7Service& operator=(const L7Service&) = delete;

  /// Binds an ephemeral loopback port and starts the loop.
  void start();

  /// Stops the loop and closes the listener and every open connection.
  /// Idempotent.
  void stop();

  /// Listening port (valid after start()).
  std::uint16_t port() const { return port_; }

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t self_redirected() const { return self_redirected_; }
  std::uint64_t bad_requests() const { return bad_requests_; }

 private:
  class Connection;

  /// Readiness on the listener: accepts every pending connection.
  void on_ready(int fd, std::uint32_t events) override;
  void on_failure() override;
  /// Decides one request head, counts the outcome and returns the
  /// serialized reply.
  std::string respond(const std::string& head);
  /// Unwatches and closes the connection on @p fd.
  void close_connection(int fd);

  core::AgreementGraph graph_;
  Config config_;
  WallClockAdmission admission_;

  net::Fd listener_;
  std::uint16_t port_ = 0;
  std::string self_host_;  ///< "127.0.0.1:<port>", the self-redirect host
  /// Open connections indexed by fd; touched by the loop thread only.
  std::vector<std::unique_ptr<Connection>> connections_;
  bool running_ = false;

  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> self_redirected_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  EventLoop loop_;  ///< last: its thread uses every member above
};

}  // namespace sharegrid::live
