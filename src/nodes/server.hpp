// Simulated server machine and per-owner server pools (§5 testbed: Apache on
// 1 GHz PCs; here a capacity-C requests/sec service queue, DESIGN.md §4).
#pragma once

#include <cstdint>
#include <vector>

#include "core/principal.hpp"
#include "l4/packet.hpp"
#include "nodes/metrics.hpp"
#include "nodes/request.hpp"
#include "sim/simulator.hpp"

namespace sharegrid::nodes {

/// Receives a Server's completions (see Server::submit).
class ServiceListener {
 public:
  /// @p request finished service at the current simulated instant; @p tag
  /// is the value passed to submit().
  virtual void on_service_done(const Request& request, std::uint32_t tag) = 0;

 protected:
  ~ServiceListener() = default;
};

/// A single server machine: processes requests in FIFO order at a fixed
/// capacity (weight units per second). Completion time for a request of
/// weight w arriving when the server frees at time f is max(now, f) + w/C.
class Server {
 public:
  struct Config {
    core::PrincipalId owner = core::kNoPrincipal;  ///< resource owner
    double capacity = 320.0;                       ///< units (requests)/sec
    l4::Endpoint endpoint;                         ///< L4 address
  };

  Server(sim::Simulator* sim, Metrics* metrics, Config config);

  /// Enqueues a request. When it finishes service, serving is recorded in
  /// Metrics and then @p listener (if any) is told, with @p tag, at the same
  /// simulated instant. The listener must outlive the completion (the
  /// node-lifetime contract, nodes/inline_schedule.hpp).
  void submit(const Request& request, ServiceListener* listener = nullptr,
              std::uint32_t tag = 0);

  /// Seconds of queued work ahead of a new arrival.
  double backlog_seconds() const;

  /// Re-provisions the machine (degradation, recovery, upgrade). Applies to
  /// requests submitted from now on; already-queued work keeps its old
  /// completion schedule.
  void set_capacity(double capacity);

  /// Total weight units served so far.
  double units_served() const { return units_served_; }

  const Config& config() const { return config_; }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

 private:
  struct Job {
    Request request;
    ServiceListener* listener = nullptr;
    std::uint32_t tag = 0;
  };

  /// Completion event: finishes the oldest job. Completions fire in submit
  /// order because next_free_ grows by at least 1 us per job, so the job
  /// FIFO's front is always the one finishing now.
  void complete();

  sim::Simulator* sim_;
  Metrics* metrics_;
  Config config_;
  SimTime next_free_ = 0;
  double units_served_ = 0.0;
  /// Jobs in service order: a power-of-two ring that doubles when full and
  /// never shrinks, so a server at its steady depth queues without touching
  /// the heap.
  std::vector<Job> jobs_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
};

/// Maps resource-owning principals to their physical machines and picks a
/// machine for each admitted request (least backlog, then declaration order).
class ServerPool {
 public:
  /// Registers a machine (not owned).
  void add(Server* server);

  /// Least-backlogged machine owned by @p owner; null when the owner has no
  /// machines.
  Server* pick(core::PrincipalId owner) const;

  /// Machine with the given L4 endpoint; null when unknown.
  Server* find(const l4::Endpoint& endpoint) const;

  const std::vector<Server*>& machines(core::PrincipalId owner) const;

  /// Aggregate capacity owned by @p owner.
  double capacity(core::PrincipalId owner) const;

 private:
  std::vector<std::vector<Server*>> by_owner_;
  std::vector<Server*> all_;
  static const std::vector<Server*> kEmpty;
};

}  // namespace sharegrid::nodes
