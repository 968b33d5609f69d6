#include "coord/combining_tree.hpp"

#include <utility>

#include "util/assert.hpp"

namespace sharegrid::coord {

CombiningTree::CombiningTree(sim::Simulator* sim, TreeTopology topology,
                             TreeConfig config)
    : sim_(sim), topology_(std::move(topology)), config_(config) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(topology_.valid());
  SHAREGRID_EXPECTS(config_.period > 0);
  SHAREGRID_EXPECTS(config_.link_delay >= 0);
  SHAREGRID_EXPECTS(config_.vector_size > 0);
  children_ = topology_.children();
  nodes_.resize(topology_.size());
  failed_.assign(topology_.size(), false);
  // A round holds slots only during its up phase, which lasts at most
  // depth * link_delay; with one round starting per period, at most
  // ceil(depth * link_delay / period) + 1 rounds hold slots at once. Double
  // the bound for slack around equal-time boundaries — begin_round asserts
  // the bucket it reclaims has actually drained, so an undersized ring is a
  // loud failure, not corruption.
  const std::uint64_t up_phase =
      static_cast<std::uint64_t>(topology_.depth()) *
      static_cast<std::uint64_t>(config_.link_delay);
  const std::size_t in_flight =
      static_cast<std::size_t>(up_phase / static_cast<std::uint64_t>(config_.period)) + 1;
  rounds_.resize(2 * in_flight + 2);
  for (RoundFrame& frame : rounds_) {
    frame.slots.resize(topology_.size());
    for (RoundSlot& slot : frame.slots)
      slot.sum.reserve(config_.vector_size);
  }
}

void CombiningTree::set_node_failed(std::size_t node, bool failed) {
  SHAREGRID_EXPECTS(node < failed_.size());
  failed_[node] = failed;
}

bool CombiningTree::node_failed(std::size_t node) const {
  SHAREGRID_EXPECTS(node < failed_.size());
  return failed_[node];
}

void CombiningTree::attach(std::size_t node, Provider provider,
                           Receiver receiver) {
  SHAREGRID_EXPECTS(node < nodes_.size());
  nodes_[node].provider = std::move(provider);
  nodes_[node].receiver = std::move(receiver);
}

void CombiningTree::start(SimTime first_round) {
  SHAREGRID_EXPECTS(task_ == nullptr);
  task_ = std::make_unique<sim::PeriodicTask>(
      sim_, first_round, config_.period, [this] { begin_round(next_round_++); });
}

void CombiningTree::stop() {
  if (task_) task_->cancel();
}

void CombiningTree::begin_round(std::uint64_t round) {
  // A failed node anywhere on the path to the root prevents the round from
  // completing; count it abandoned up front (downstream consumers keep
  // their last snapshot).
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    if (failed_[node]) {
      ++rounds_abandoned_;
      return;
    }
  }
  // Every node samples its provider simultaneously at round start, then
  // reports race up the tree; an interior node forwards once its own sample
  // and all children's reports are in.
  RoundFrame& frame = rounds_[round % rounds_.size()];
  SHAREGRID_ASSERT(!frame.live);  // ring sized to bound in-flight rounds
  frame.round = round;
  frame.live = true;
  frame.live_slots = nodes_.size();
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    RoundSlot& slot = frame.slots[node];
    slot.live = true;
    slot.sum.assign(config_.vector_size, 0.0);
    slot.reports_pending = children_[node].size();
    if (nodes_[node].provider) {
      const std::vector<double> local = nodes_[node].provider();
      SHAREGRID_ASSERT(local.size() == config_.vector_size);
      for (std::size_t i = 0; i < local.size(); ++i) slot.sum[i] += local[i];
    }
    if (slot.reports_pending == 0) forward_up(round, node);
  }
}

void CombiningTree::deliver_report(std::uint64_t round, std::size_t node,
                                   const std::vector<double>& value) {
  RoundFrame& frame = rounds_[round % rounds_.size()];
  SHAREGRID_ASSERT(frame.live && frame.round == round);
  RoundSlot& slot = frame.slots[node];
  SHAREGRID_ASSERT(slot.live);
  for (std::size_t i = 0; i < value.size(); ++i) slot.sum[i] += value[i];
  SHAREGRID_ASSERT(slot.reports_pending > 0);
  if (--slot.reports_pending == 0) forward_up(round, node);
}

void CombiningTree::forward_up(std::uint64_t round, std::size_t node) {
  RoundFrame& frame = rounds_[round % rounds_.size()];
  SHAREGRID_ASSERT(frame.live && frame.round == round);
  RoundSlot& slot = frame.slots[node];
  SHAREGRID_ASSERT(slot.live);
  // Retire the slot but keep its sum buffer in place (capacity is reused on
  // the next round through this bucket); the buffer stays readable below
  // because nothing re-enters this frame synchronously.
  slot.live = false;
  SHAREGRID_ASSERT(frame.live_slots > 0);
  if (--frame.live_slots == 0) frame.live = false;

  const std::size_t parent = topology_.parent[node];
  if (parent == kNoParent) {
    // Root: the aggregate is complete; broadcast it back down.
    ++rounds_completed_;
    broadcast_down(round, node, slot.sum);
    return;
  }
  ++messages_sent_;
  sim_->schedule_after(config_.link_delay,
                       [this, round, parent, sum = slot.sum] {
                         deliver_report(round, parent, sum);
                       });
}

void CombiningTree::broadcast_down(std::uint64_t round, std::size_t node,
                                   const std::vector<double>& aggregate) {
  if (nodes_[node].receiver) nodes_[node].receiver(round, aggregate);
  for (std::size_t child : children_[node]) {
    ++messages_sent_;
    sim_->schedule_after(config_.link_delay,
                         [this, round, child, aggregate] {
                           broadcast_down(round, child, aggregate);
                         });
  }
}

PairwiseExchange::PairwiseExchange(sim::Simulator* sim, std::size_t node_count,
                                   TreeConfig config)
    : sim_(sim),
      config_(config),
      providers_(node_count),
      receivers_(node_count) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(node_count >= 1);
  SHAREGRID_EXPECTS(config_.vector_size > 0);
}

void PairwiseExchange::attach(std::size_t node,
                              CombiningTree::Provider provider,
                              CombiningTree::Receiver receiver) {
  SHAREGRID_EXPECTS(node < providers_.size());
  providers_[node] = std::move(provider);
  receivers_[node] = std::move(receiver);
}

void PairwiseExchange::start(SimTime first_round) {
  SHAREGRID_EXPECTS(task_ == nullptr);
  task_ = std::make_unique<sim::PeriodicTask>(sim_, first_round,
                                              config_.period,
                                              [this] { begin_round(); });
}

void PairwiseExchange::stop() {
  if (task_) task_->cancel();
}

void PairwiseExchange::begin_round() {
  // Every node unicasts its local vector to every other node; receivers sum
  // what arrives within one link delay. n(n-1) messages per round.
  const std::uint64_t round = next_round_++;
  const std::size_t n = providers_.size();
  std::vector<std::vector<double>> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples[i] = providers_[i] ? providers_[i]()
                               : std::vector<double>(config_.vector_size, 0.0);
    SHAREGRID_ASSERT(samples[i].size() == config_.vector_size);
  }
  for (std::size_t dst = 0; dst < n; ++dst) {
    if (!receivers_[dst]) {
      messages_sent_ += n - 1;
      continue;
    }
    std::vector<double> total(config_.vector_size, 0.0);
    for (std::size_t src = 0; src < n; ++src) {
      if (src != dst) ++messages_sent_;
      for (std::size_t k = 0; k < config_.vector_size; ++k)
        total[k] += samples[src][k];
    }
    sim_->schedule_after(config_.link_delay, [this, round, dst, total] {
      receivers_[dst](round, total);
    });
  }
}

namespace {

TreeConfig tree_config_for(std::size_t vector_size,
                           const SimTreeTransport::Options& options) {
  TreeConfig config;
  config.period = options.period;
  config.link_delay = options.link_delay;
  config.vector_size = vector_size;
  return config;
}

TreeTopology topology_for(std::size_t member_count,
                          const SimTreeTransport::Options& options) {
  // Members hang off a virtual root (node 0) so every one of them sees the
  // same aggregate lag; fanout >= 2 folds them into a balanced tree whose
  // interior members both contribute and combine (§3.2).
  SHAREGRID_EXPECTS(options.fanout == 0 || options.fanout >= 2);
  return options.fanout == 0
             ? TreeTopology::star(member_count + 1)
             : TreeTopology::balanced(member_count + 1, options.fanout);
}

}  // namespace

SimTreeTransport::SimTreeTransport(sim::Simulator* sim,
                                   std::size_t member_count,
                                   std::size_t vector_size, Options options)
    : member_count_(member_count),
      options_(options),
      tree_(sim, topology_for(member_count, options),
            tree_config_for(vector_size, options)) {
  SHAREGRID_EXPECTS(member_count >= 1);
}

void SimTreeTransport::attach(std::size_t member, Provider provider,
                              Receiver receiver) {
  SHAREGRID_EXPECTS(member < member_count_);
  tree_.attach(member + 1, std::move(provider), std::move(receiver));
}

void SimTreeTransport::start() { tree_.start(options_.first_round); }

void SimTreeTransport::stop() { tree_.stop(); }

}  // namespace sharegrid::coord
