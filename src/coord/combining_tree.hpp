// The combining-tree aggregation network (§3.2), the DES snapshot transport.
//
// Redirectors periodically contribute their local per-principal queue-length
// vectors; reports travel leaf-to-root, are summed element-wise at each hop,
// and the root's aggregate is broadcast back down — 2(n-1) messages per round
// versus O(n^2) for pairwise exchange. Members are tree nodes 1..R under a
// virtual root 0 that only combines: a flat star (every member one hop from
// the root) or a balanced k-ary tree whose interior members both contribute
// and combine. Links have a configurable one-way delay, so receivers observe
// aggregates that lag true state by up to 2 * depth * delay; the Figure 8
// experiment sets this lag to 10 seconds. Rounds may overlap in flight when
// the lag exceeds the round period.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coord/snapshot_transport.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace sharegrid::coord {

/// Event-driven combining tree running on a Simulator. Uniform link delays
/// mean rounds complete in start order, so every receiver observes strictly
/// increasing round numbers — the monotonicity the control-plane audit pins.
class CombiningTree final : public SnapshotTransport {
 public:
  struct Options {
    /// How often an aggregation round starts.
    SimDuration period = 100 * kMillisecond;
    /// One-way delay of every tree link (same up and down).
    SimDuration link_delay = 0;
    /// 0 = flat star under the virtual root; k >= 2 = balanced k-ary tree
    /// (node i's parent is (i-1)/k).
    std::size_t fanout = 0;
    /// When the first aggregation round fires.
    SimTime first_round = 0;
  };

  CombiningTree(sim::Simulator* sim, std::size_t member_count,
                std::size_t vector_size, Options options);

  /// Attaches member @p member (tree node member + 1). Members without a
  /// provider contribute zeros; members without a receiver simply forward.
  /// Call before start().
  void attach(std::size_t member, Provider provider,
              Receiver receiver) override;

  /// Starts periodic aggregation rounds at Options::first_round.
  void start() override;

  /// Stops future rounds (in-flight messages still drain).
  void stop() override;

  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t rounds_completed() const { return rounds_completed_; }

 private:
  struct NodeState {
    Provider provider;
    Receiver receiver;
  };
  /// Per-round partial aggregation at one interior node.
  struct RoundSlot {
    std::vector<double> sum;
    std::size_t reports_pending = 0;
    /// Created at round start, cleared when the node forwards its partial
    /// sum; replaces the old map erase.
    bool live = false;
  };
  /// All per-node slots of one in-flight round, stored in a ring bucket
  /// (`round % rounds_.size()`). The ring replaces a
  /// `std::map<(round, node), RoundSlot>` whose node churn dominated every
  /// snapshot exchange: slot vectors are now allocated once and reused, and
  /// lookup is two indexed loads. Capacity bounds the number of live rounds
  /// — a round holds slots only during its up phase (≤ depth * link_delay),
  /// and begin_round asserts the reclaimed bucket has drained.
  struct RoundFrame {
    std::uint64_t round = 0;
    bool live = false;
    std::size_t live_slots = 0;
    std::vector<RoundSlot> slots;  // indexed by node
  };

  /// Node @p node's children are the index range [first_child, end_child);
  /// every node but the root has parent (node - 1) / arity_.
  std::size_t first_child(std::size_t node) const;
  std::size_t end_child(std::size_t node) const;

  void begin_round(std::uint64_t round);
  void deliver_report(std::uint64_t round, std::size_t node,
                      const std::vector<double>& value);
  void forward_up(std::uint64_t round, std::size_t node);
  void broadcast_down(std::uint64_t round, std::size_t node,
                      const std::vector<double>& aggregate);

  sim::Simulator* sim_;
  std::size_t vector_size_;
  Options options_;
  /// Children per interior node: the fanout, or every member for the star.
  std::size_t arity_;
  std::vector<NodeState> nodes_;  // indexed by node; node 0 is the root
  // Ring of in-flight rounds; see RoundFrame.
  std::vector<RoundFrame> rounds_;
  std::unique_ptr<sim::PeriodicTask> task_;
  std::uint64_t next_round_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t rounds_completed_ = 0;
};

/// Pairwise full exchange: the O(n^2)-message alternative the paper compares
/// against. Same Provider/Receiver interface so benches can swap strategies.
class PairwiseExchange {
 public:
  PairwiseExchange(sim::Simulator* sim, std::size_t node_count,
                   std::size_t vector_size, SimDuration period,
                   SimDuration link_delay);

  void attach(std::size_t node, SnapshotTransport::Provider provider,
              SnapshotTransport::Receiver receiver);
  void start(SimTime first_round);
  void stop();

  std::uint64_t messages_sent() const { return messages_sent_; }

 private:
  void begin_round();

  sim::Simulator* sim_;
  std::size_t vector_size_;
  SimDuration period_;
  SimDuration link_delay_;
  std::vector<SnapshotTransport::Provider> providers_;
  std::vector<SnapshotTransport::Receiver> receivers_;
  std::unique_ptr<sim::PeriodicTask> task_;
  std::uint64_t next_round_ = 0;
  std::uint64_t messages_sent_ = 0;
};

}  // namespace sharegrid::coord
