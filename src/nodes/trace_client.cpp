#include "nodes/trace_client.hpp"

#include <algorithm>

#include "nodes/inline_schedule.hpp"
#include "util/assert.hpp"

namespace sharegrid::nodes {

TraceClient::TraceClient(sim::Simulator* sim, Metrics* metrics,
                         RedirectorBase* redirector,
                         const workload::RequestTrace* trace, Config config,
                         Rng rng)
    : sim_(sim),
      metrics_(metrics),
      redirector_(redirector),
      trace_(trace),
      config_(config),
      rng_(rng) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(metrics != nullptr);
  SHAREGRID_EXPECTS(redirector != nullptr);
  SHAREGRID_EXPECTS(trace != nullptr);
}

void TraceClient::start() {
  for (const workload::TraceEntry& entry : trace_->entries()) {
    schedule_at(sim_, entry.time, [this, entry] {
      Request req;
      req.id = (static_cast<std::uint64_t>(config_.index) << 32) | issued_;
      ++issued_;
      req.principal = static_cast<std::uint32_t>(entry.principal);
      req.weight = entry.weight;
      req.reply_bytes = entry.reply_bytes;
      req.created = sim_->now();
      req.client = static_cast<std::uint32_t>(config_.index);
      metrics_->on_offered(req.principal, sim_->now());
      send(req);
    });
  }
}

void TraceClient::send(const Request& request) {
  schedule_after(sim_, config_.net_delay, [this, request] {
    redirector_->on_client_request(request, this);
  });
}

void TraceClient::on_redirect_to_server(const Request& request,
                                        Server* server) {
  SHAREGRID_EXPECTS(server != nullptr);
  schedule_after(sim_, config_.net_delay, [this, request, server] {
    server->submit(request, this);
  });
}

void TraceClient::on_service_done(const Request& request,
                                  std::uint32_t /*tag*/) {
  schedule_after(sim_, config_.net_delay,
                 [this, request] { on_response(request); });
}

void TraceClient::on_self_redirect(const Request& request) {
  metrics_->on_rejected(request.principal, sim_->now());
  const double delay_sec = config_.retry_delay_sec * rng_.uniform(0.6, 1.4);
  schedule_after(sim_, std::max<SimDuration>(1, seconds(delay_sec)),
                 [this, request] { send(request); });
}

void TraceClient::on_response(const Request& request) {
  ++completed_;
  metrics_->on_latency(request.principal,
                       to_seconds(sim_->now() - request.created));
}

}  // namespace sharegrid::nodes
