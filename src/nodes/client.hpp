// Simulated client machine: the WebBench load generator (§5).
//
// While active, a machine issues requests at its configured maximum rate —
// the per-machine caps in the paper's figures (135 req/s with the L7 retry
// proxy, 400 req/s raw) — subject to a bound on outstanding requests that
// models WebBench's closed-loop worker threads: when responses stop coming
// back, generation stalls rather than queueing unboundedly.
//
// Layer-7 behaviour: the client sends to a redirector; a 302 to a server
// makes it re-issue the request there; a 302 back to the redirector itself
// (implicit queuing) makes it retry after retry_delay. Layer-4 behaviour:
// the client just sends to the virtual service address and waits.
#pragma once

#include <cstdint>

#include "nodes/metrics.hpp"
#include "nodes/request.hpp"
#include "nodes/server.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/reply_size.hpp"

namespace sharegrid::nodes {

/// What a client looks like to a redirector: the callbacks that complete a
/// request's life cycle. Implemented by the closed-loop ClientMachine and
/// the open-loop TraceClient.
class RequestSource {
 public:
  virtual ~RequestSource() = default;

  /// L7: the redirector assigned @p server; re-issue the request there.
  virtual void on_redirect_to_server(const Request& request,
                                     Server* server) = 0;
  /// L7: the redirector said retry later (implicit queuing).
  virtual void on_self_redirect(const Request& request) = 0;
  /// Final response arrived (from a server or through the L4 NAT path).
  virtual void on_response(const Request& request) = 0;
};

/// What a redirector looks like to a client: a sink for new requests.
/// Both the L7 and L4 redirectors implement this.
class RedirectorBase {
 public:
  virtual ~RedirectorBase() = default;

  /// Invoked (already past the client->redirector network delay) when a
  /// client issues or retries a request.
  virtual void on_client_request(const Request& request,
                                 RequestSource* from) = 0;
};

/// One load-generating machine tied to one organization and one redirector.
/// Its events capture only `this` (and the request in flight): the machine
/// must outlive every simulator run that could fire them (node-lifetime
/// contract, nodes/inline_schedule.hpp).
class ClientMachine final : public RequestSource, public ServiceListener {
 public:
  struct Config {
    core::PrincipalId principal = core::kNoPrincipal;
    std::size_t index = 0;       ///< this machine's id within the experiment
    double rate = 400.0;         ///< max request generation rate (req/s)
    double retry_delay_sec = 0.2;  ///< L7 self-redirect retry backoff
    std::size_t max_outstanding = 64;  ///< closed-loop worker bound
    bool exponential_arrivals = true;  ///< Poisson vs evenly spaced issue
    SimDuration net_delay = 500;       ///< one-way hop delay (usec)
    /// When a reply-size distribution is attached, also use the sampled
    /// size as the request's scheduling weight (size/mean units); otherwise
    /// sizes only feed bandwidth accounting and every request costs 1 unit.
    bool weighted_requests = false;
  };

  ClientMachine(sim::Simulator* sim, Metrics* metrics,
                RedirectorBase* redirector, Config config, Rng rng,
                const workload::ReplySizeDistribution* sizes = nullptr);

  ClientMachine(const ClientMachine&) = delete;
  ClientMachine& operator=(const ClientMachine&) = delete;

  /// Turns generation on/off (phase schedule). Outstanding requests keep
  /// draining after deactivation.
  void set_active(bool active);
  bool active() const { return active_; }

  // RequestSource:
  void on_redirect_to_server(const Request& request, Server* server) override;
  void on_self_redirect(const Request& request) override;
  void on_response(const Request& request) override;

  // ServiceListener: the L7 server finished; the reply hop follows.
  void on_service_done(const Request& request, std::uint32_t tag) override;

  std::size_t outstanding() const { return outstanding_; }
  const Config& config() const { return config_; }

  /// Requests issued (new, not retries) so far.
  std::uint64_t issued() const { return next_request_id_; }

 private:
  void schedule_next_arrival();
  void emit();
  void send_to_redirector(const Request& request);

  sim::Simulator* sim_;
  Metrics* metrics_;
  RedirectorBase* redirector_;
  Config config_;
  Rng rng_;
  const workload::ReplySizeDistribution* sizes_;

  bool active_ = false;
  bool loop_armed_ = false;
  std::size_t outstanding_ = 0;
  std::uint64_t next_request_id_ = 0;
};

}  // namespace sharegrid::nodes
