#include "nodes/client.hpp"

#include <algorithm>
#include <utility>

#include "nodes/inline_schedule.hpp"
#include "util/assert.hpp"

namespace sharegrid::nodes {

ClientMachine::ClientMachine(sim::Simulator* sim, Metrics* metrics,
                             RedirectorBase* redirector, Config config,
                             Rng rng,
                             const workload::ReplySizeDistribution* sizes)
    : sim_(sim),
      metrics_(metrics),
      redirector_(redirector),
      config_(std::move(config)),
      rng_(rng),
      sizes_(sizes) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(metrics != nullptr);
  SHAREGRID_EXPECTS(redirector != nullptr);
  SHAREGRID_EXPECTS(config_.rate > 0.0);
  SHAREGRID_EXPECTS(config_.principal != core::kNoPrincipal);
  SHAREGRID_EXPECTS(config_.max_outstanding >= 1);
}

void ClientMachine::set_active(bool active) {
  active_ = active;
  if (active_ && !loop_armed_) {
    loop_armed_ = true;
    schedule_next_arrival();
  }
}

void ClientMachine::schedule_next_arrival() {
  const double mean_gap = 1.0 / config_.rate;
  const double gap_sec = config_.exponential_arrivals
                             ? rng_.exponential(mean_gap)
                             : mean_gap;
  const auto gap = std::max<SimDuration>(1, seconds(gap_sec));
  schedule_after(sim_, gap, [this] {
    if (!active_) {
      loop_armed_ = false;  // generation stops; reactivation re-arms
      return;
    }
    if (outstanding_ < config_.max_outstanding) emit();
    schedule_next_arrival();
  });
}

void ClientMachine::emit() {
  Request req;
  req.id = (static_cast<std::uint64_t>(config_.index) << 32) |
           next_request_id_++;
  req.principal = static_cast<std::uint32_t>(config_.principal);
  req.created = sim_->now();
  req.client = static_cast<std::uint32_t>(config_.index);
  if (sizes_ != nullptr) {
    const workload::SampledRequest sample = sizes_->sample(rng_);
    req.reply_bytes = sample.reply_bytes;
    // By default the scheduling weight stays 1 (capacities are calibrated
    // in requests of the standard mix); weighted mode treats large requests
    // as multiple small ones (§4).
    if (config_.weighted_requests) req.weight = sample.weight;
  }
  ++outstanding_;
  metrics_->on_offered(req.principal, sim_->now());
  send_to_redirector(req);
}

void ClientMachine::send_to_redirector(const Request& request) {
  schedule_after(sim_, config_.net_delay, [this, request] {
    redirector_->on_client_request(request, this);
  });
}

void ClientMachine::on_redirect_to_server(const Request& request,
                                          Server* server) {
  SHAREGRID_EXPECTS(server != nullptr);
  // One hop to reach the assigned server, then service, then the reply hop.
  schedule_after(sim_, config_.net_delay, [this, request, server] {
    server->submit(request, this);
  });
}

void ClientMachine::on_service_done(const Request& request,
                                    std::uint32_t /*tag*/) {
  schedule_after(sim_, config_.net_delay,
                 [this, request] { on_response(request); });
}

void ClientMachine::on_self_redirect(const Request& request) {
  metrics_->on_rejected(request.principal, sim_->now());
  // The WebBench-side proxy retries the same URL after a short pause; the
  // outstanding slot stays occupied, which is what throttles generation.
  // Jitter spreads retries across scheduling windows — without it, every
  // request rejected in one window comes back in the same later window,
  // alternately overflowing and starving the quota.
  const double delay_sec = config_.retry_delay_sec * rng_.uniform(0.6, 1.4);
  schedule_after(sim_, seconds(delay_sec),
                 [this, request] { send_to_redirector(request); });
}

void ClientMachine::on_response(const Request& request) {
  SHAREGRID_ASSERT(outstanding_ > 0);
  --outstanding_;
  metrics_->on_latency(request.principal,
                       to_seconds(sim_->now() - request.created));
}

}  // namespace sharegrid::nodes
