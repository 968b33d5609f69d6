#include "coord/combining_tree.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace sharegrid::coord {

CombiningTree::CombiningTree(sim::Simulator* sim, std::size_t member_count,
                             std::size_t vector_size, Options options)
    : sim_(sim),
      vector_size_(vector_size),
      options_(options),
      arity_(options.fanout == 0 ? member_count : options.fanout),
      nodes_(member_count + 1) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(member_count >= 1);
  SHAREGRID_EXPECTS(vector_size > 0);
  SHAREGRID_EXPECTS(options_.period > 0);
  SHAREGRID_EXPECTS(options_.link_delay >= 0);
  SHAREGRID_EXPECTS(options_.fanout == 0 || options_.fanout >= 2);
  // The last node is a deepest leaf: node depth never falls as index grows.
  std::uint64_t depth = 0;
  for (std::size_t node = nodes_.size() - 1; node != 0;
       node = (node - 1) / arity_)
    ++depth;
  // A round holds slots only during its up phase, which lasts at most
  // depth * link_delay; with one round starting per period, at most
  // ceil(depth * link_delay / period) + 1 rounds hold slots at once. Double
  // the bound for slack around equal-time boundaries — begin_round asserts
  // the bucket it reclaims has actually drained, so an undersized ring is a
  // loud failure, not corruption.
  const std::uint64_t up_phase =
      depth * static_cast<std::uint64_t>(options_.link_delay);
  const std::size_t in_flight = static_cast<std::size_t>(
      up_phase / static_cast<std::uint64_t>(options_.period)) + 1;
  rounds_.resize(2 * in_flight + 2);
  for (RoundFrame& frame : rounds_) {
    frame.slots.resize(nodes_.size());
    for (RoundSlot& slot : frame.slots) slot.sum.reserve(vector_size_);
  }
}

std::size_t CombiningTree::first_child(std::size_t node) const {
  return std::min(node * arity_ + 1, nodes_.size());
}

std::size_t CombiningTree::end_child(std::size_t node) const {
  return std::min(node * arity_ + 1 + arity_, nodes_.size());
}

void CombiningTree::attach(std::size_t member, Provider provider,
                           Receiver receiver) {
  SHAREGRID_EXPECTS(member + 1 < nodes_.size());
  nodes_[member + 1].provider = std::move(provider);
  nodes_[member + 1].receiver = std::move(receiver);
}

void CombiningTree::start() {
  SHAREGRID_EXPECTS(task_ == nullptr);
  task_ = std::make_unique<sim::PeriodicTask>(
      sim_, options_.first_round, options_.period,
      [this] { begin_round(next_round_++); });
}

void CombiningTree::stop() {
  if (task_) task_->cancel();
}

void CombiningTree::begin_round(std::uint64_t round) {
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
    slot.sum.assign(vector_size_, 0.0);
    slot.reports_pending = end_child(node) - first_child(node);
    if (nodes_[node].provider) {
      const std::vector<double> local = nodes_[node].provider();
      SHAREGRID_ASSERT(local.size() == vector_size_);
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

  if (node == 0) {
    // Root: the aggregate is complete; broadcast it back down.
    ++rounds_completed_;
    broadcast_down(round, node, slot.sum);
    return;
  }
  const std::size_t parent = (node - 1) / arity_;
  ++messages_sent_;
  sim_->schedule_after(options_.link_delay,
                       [this, round, parent, sum = slot.sum] {
                         deliver_report(round, parent, sum);
                       });
}

void CombiningTree::broadcast_down(std::uint64_t round, std::size_t node,
                                   const std::vector<double>& aggregate) {
  if (nodes_[node].receiver) nodes_[node].receiver(round, aggregate);
  for (std::size_t child = first_child(node); child < end_child(node);
       ++child) {
    ++messages_sent_;
    sim_->schedule_after(options_.link_delay,
                         [this, round, child, aggregate] {
                           broadcast_down(round, child, aggregate);
                         });
  }
}

PairwiseExchange::PairwiseExchange(sim::Simulator* sim, std::size_t node_count,
                                   std::size_t vector_size, SimDuration period,
                                   SimDuration link_delay)
    : sim_(sim),
      vector_size_(vector_size),
      period_(period),
      link_delay_(link_delay),
      providers_(node_count),
      receivers_(node_count) {
  SHAREGRID_EXPECTS(sim != nullptr);
  SHAREGRID_EXPECTS(node_count >= 1);
  SHAREGRID_EXPECTS(vector_size > 0);
  SHAREGRID_EXPECTS(period > 0);
  SHAREGRID_EXPECTS(link_delay >= 0);
}

void PairwiseExchange::attach(std::size_t node,
                              SnapshotTransport::Provider provider,
                              SnapshotTransport::Receiver receiver) {
  SHAREGRID_EXPECTS(node < providers_.size());
  providers_[node] = std::move(provider);
  receivers_[node] = std::move(receiver);
}

void PairwiseExchange::start(SimTime first_round) {
  SHAREGRID_EXPECTS(task_ == nullptr);
  task_ = std::make_unique<sim::PeriodicTask>(sim_, first_round, period_,
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
                               : std::vector<double>(vector_size_, 0.0);
    SHAREGRID_ASSERT(samples[i].size() == vector_size_);
  }
  for (std::size_t dst = 0; dst < n; ++dst) {
    if (!receivers_[dst]) {
      messages_sent_ += n - 1;
      continue;
    }
    std::vector<double> total(vector_size_, 0.0);
    for (std::size_t src = 0; src < n; ++src) {
      if (src != dst) ++messages_sent_;
      for (std::size_t k = 0; k < vector_size_; ++k)
        total[k] += samples[src][k];
    }
    sim_->schedule_after(link_delay_, [this, round, dst, total] {
      receivers_[dst](round, total);
    });
  }
}

}  // namespace sharegrid::coord
