// A live user-space Layer-4-style proxy (§4.2 without the kernel).
//
// The paper's L4 prototype is an in-kernel LVS/NAT module; raw sockets and
// netfilter hooks need privileges a reproduction cannot assume (DESIGN.md
// §4). This proxy keeps the scheduling-visible semantics at the socket
// layer: admission happens per *connection* at accept time (the SYN
// analogue), an admitted connection is pinned to one backend for its whole
// lifetime (affinity), bytes are relayed verbatim in both directions with
// no application-layer parsing, and over-quota connections are refused by
// closing them (the paper's kernel queue defers packets; a userspace proxy
// signals the client to retry instead).
//
// One listening port per principal plays the role of the virtual service
// address: the proxy infers the organization from the port the client
// dialed, exactly as an L4 switch keys on the destination VIP.
//
// Like the switch, the proxy costs a table entry per connection, not a
// thread: one EventLoop thread accepts, admits, dials the backend without
// blocking and relays both directions (live/event_loop.hpp). Half-closes
// pass through as they would through a NAT: a client that shuts down its
// sending side after the request still reads the whole reply, and the
// connection closes once both sides have closed, either side fails, or it
// stays idle for kIdleTimeoutMs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "live/event_loop.hpp"
#include "live/wall_clock_admission.hpp"

namespace sharegrid::live {

/// Wall-clock connection-level admission proxy over loopback TCP.
class L4Proxy : private EventLoop::Handler {
 public:
  /// One virtual service: connections to the proxy's port for this service
  /// are relayed to `backend_port` when admitted.
  struct Service {
    core::PrincipalId principal = core::kNoPrincipal;
    std::uint16_t backend_port = 0;  ///< where the real server listens
    core::PrincipalId owner = core::kNoPrincipal;  ///< backend's owner
  };

  struct Config {
    std::int64_t window_usec = 100000;
    std::vector<Service> services;
  };

  L4Proxy(const sched::Scheduler* scheduler, Config config);
  ~L4Proxy();

  L4Proxy(const L4Proxy&) = delete;
  L4Proxy& operator=(const L4Proxy&) = delete;

  /// Binds one ephemeral loopback port per service and starts the loop.
  void start();
  /// Stops the loop and closes every listener and open relay. Idempotent.
  void stop();

  /// The virtual-service port for services[index] (valid after start()).
  std::uint16_t service_port(std::size_t index) const;

  /// Connections relayed to their backend.
  std::uint64_t admitted() const { return admitted_; }
  /// Connections closed unrelayed: over quota, or the backend dial failed.
  std::uint64_t refused() const { return refused_; }

 private:
  class Relay;

  /// Readiness on a listener: accepts and admits every pending connection.
  void on_ready(int fd, std::uint32_t events) override;
  void on_failure() override;
  void accept_all(std::size_t service_index);
  /// Unwatches and closes both sides of the relay on @p client_fd.
  void close_relay(int client_fd);

  Config config_;
  WallClockAdmission admission_;

  std::vector<net::Fd> listeners_;  ///< one per service, in config order
  /// Open relays indexed by their client fd; touched by the loop thread
  /// only.
  std::vector<std::unique_ptr<Relay>> relays_;
  bool running_ = false;

  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> refused_{0};
  EventLoop loop_;  ///< last: its thread uses every member above
};

}  // namespace sharegrid::live
