#include "nodes/server.hpp"

#include <algorithm>
#include <utility>

#include "nodes/inline_schedule.hpp"
#include "util/assert.hpp"

namespace sharegrid::nodes {

Server::Server(sim::Simulator* sim, Metrics* metrics, Config config)
    : sim_(sim), metrics_(metrics), config_(std::move(config)) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(metrics != nullptr);
  SHAREGRID_EXPECTS(config_.capacity > 0.0);
  SHAREGRID_EXPECTS(config_.owner != core::kNoPrincipal);
}

void Server::submit(const Request& request, ServiceListener* listener,
                    std::uint32_t tag) {
  SHAREGRID_EXPECTS(request.weight > 0.0);
  const SimTime start = std::max(sim_->now(), next_free_);
  const auto service =
      static_cast<SimDuration>(request.weight / config_.capacity *
                               static_cast<double>(kSecond));
  next_free_ = start + std::max<SimDuration>(1, service);
  units_served_ += request.weight;

  if (queued_ == jobs_.size()) {
    std::vector<Job> bigger(std::max<std::size_t>(4, 2 * jobs_.size()));
    for (std::size_t i = 0; i < queued_; ++i)
      bigger[i] = jobs_[(head_ + i) & (jobs_.size() - 1)];
    jobs_ = std::move(bigger);
    head_ = 0;
  }
  jobs_[(head_ + queued_) & (jobs_.size() - 1)] = {request, listener, tag};
  ++queued_;
  schedule_at(sim_, next_free_, [this] { complete(); });
}

void Server::complete() {
  SHAREGRID_ASSERT(queued_ > 0);
  // A copy: the listener may submit again, reusing or reallocating the slot.
  const Job job = jobs_[head_];
  head_ = (head_ + 1) & (jobs_.size() - 1);
  --queued_;
  metrics_->on_served(job.request.principal, sim_->now());
  metrics_->on_reply_bytes(job.request.principal, sim_->now(),
                           job.request.reply_bytes);
  if (job.listener != nullptr)
    job.listener->on_service_done(job.request, job.tag);
}

double Server::backlog_seconds() const {
  return std::max<double>(0.0, to_seconds(next_free_ - sim_->now()));
}

void Server::set_capacity(double capacity) {
  SHAREGRID_EXPECTS(capacity > 0.0);
  config_.capacity = capacity;
}

const std::vector<Server*> ServerPool::kEmpty;

void ServerPool::add(Server* server) {
  SHAREGRID_EXPECTS(server != nullptr);
  const core::PrincipalId owner = server->config().owner;
  if (owner >= by_owner_.size()) by_owner_.resize(owner + 1);
  by_owner_[owner].push_back(server);
  all_.push_back(server);
}

Server* ServerPool::pick(core::PrincipalId owner) const {
  if (owner >= by_owner_.size() || by_owner_[owner].empty()) return nullptr;
  Server* best = by_owner_[owner].front();
  for (Server* s : by_owner_[owner]) {
    if (s->backlog_seconds() < best->backlog_seconds()) best = s;
  }
  return best;
}

Server* ServerPool::find(const l4::Endpoint& endpoint) const {
  for (Server* s : all_) {
    if (s->config().endpoint == endpoint) return s;
  }
  return nullptr;
}

const std::vector<Server*>& ServerPool::machines(
    core::PrincipalId owner) const {
  if (owner >= by_owner_.size()) return kEmpty;
  return by_owner_[owner];
}

double ServerPool::capacity(core::PrincipalId owner) const {
  double total = 0.0;
  for (const Server* s : machines(owner)) total += s->config().capacity;
  return total;
}

}  // namespace sharegrid::nodes
