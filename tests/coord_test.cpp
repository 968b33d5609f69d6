// Unit tests for the combining-tree and pairwise-exchange aggregation
// strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coord/combining_tree.hpp"
#include "sim/simulator.hpp"

namespace sharegrid::coord {
namespace {

// --- CombiningTree ---------------------------------------------------------

struct Participant {
  std::vector<double> local;
  std::vector<std::vector<double>> received;
  std::vector<SimTime> received_at;
};

/// Wires participant i to tree member i.
void attach_all(CombiningTree& tree, sim::Simulator& sim,
                std::vector<Participant>& parts) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    Participant* p = &parts[i];
    tree.attach(
        i, [p] { return p->local; },
        [p, &sim](std::uint64_t, const std::vector<double>& agg) {
          p->received.push_back(agg);
          p->received_at.push_back(sim.now());
        });
  }
}

TEST(CombiningTree, AggregatesElementwiseSums) {
  sim::Simulator sim;
  CombiningTree tree(&sim, 3, 2, {.period = 100, .link_delay = 0});
  std::vector<Participant> parts(3);
  parts[0].local = {1.0, 10.0};
  parts[1].local = {2.0, 20.0};
  parts[2].local = {3.0, 30.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(50);
  for (const auto& p : parts) {
    ASSERT_EQ(p.received.size(), 1u);
    EXPECT_DOUBLE_EQ(p.received[0][0], 6.0);
    EXPECT_DOUBLE_EQ(p.received[0][1], 60.0);
  }
}

TEST(CombiningTree, UsesTwoNMinusOneMessagesPerRound) {
  sim::Simulator sim;
  const std::size_t n = 8;  // tree nodes: the virtual root plus 7 members
  CombiningTree tree(&sim, n - 1, 1,
                     {.period = 100, .link_delay = 1, .fanout = 2});
  std::vector<Participant> parts(n - 1);
  for (auto& p : parts) p.local = {1.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(99);  // exactly one round
  EXPECT_EQ(tree.rounds_completed(), 1u);
  EXPECT_EQ(tree.messages_sent(), 2 * (n - 1));
}

// --- Tree layouts ------------------------------------------------------------

/// One tree layout: a star (fanout 0) or a balanced k-ary tree of `members`
/// under the virtual root, its depth, and each member's depth.
struct Shape {
  std::size_t members;
  std::size_t fanout;
  std::size_t depth;
  std::vector<std::size_t> member_depth;
};

/// Runs one round on @p shape and checks it costs 2R messages (R members
/// plus the virtual root), delivers the same aggregate to every member, and
/// that member m hears it (depth + depth(m)) links after round start, so the
/// last member lags by 2 * depth * link_delay.
void expect_one_aggregate_at_twice_depth_lag(const Shape& shape) {
  SCOPED_TRACE(testing::Message() << "members=" << shape.members
                                  << " fanout=" << shape.fanout);
  constexpr SimDuration kDelay = 5;
  constexpr SimTime kStart = 100;
  sim::Simulator sim;
  CombiningTree tree(&sim, shape.members, 1,
                     {.period = 1000,
                      .link_delay = kDelay,
                      .fanout = shape.fanout,
                      .first_round = kStart});
  std::vector<Participant> parts(shape.members);
  double total = 0.0;
  for (std::size_t m = 0; m < parts.size(); ++m) {
    parts[m].local = {static_cast<double>(m + 1)};
    total += parts[m].local[0];
  }
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(kStart + 999);  // exactly one round
  EXPECT_EQ(tree.rounds_completed(), 1u);
  EXPECT_EQ(tree.messages_sent(), 2 * shape.members);
  SimDuration max_lag = 0;
  for (std::size_t m = 0; m < parts.size(); ++m) {
    ASSERT_EQ(parts[m].received.size(), 1u);
    EXPECT_DOUBLE_EQ(parts[m].received[0][0], total);
    const SimDuration lag = parts[m].received_at[0] - kStart;
    EXPECT_EQ(lag,
              static_cast<SimDuration>(shape.depth + shape.member_depth[m]) *
                  kDelay);
    max_lag = std::max(max_lag, lag);
  }
  EXPECT_EQ(max_lag, static_cast<SimDuration>(2 * shape.depth) * kDelay);
}

TEST(TreeTopology, StarShape) {
  expect_one_aggregate_at_twice_depth_lag({4, 0, 1, {1, 1, 1, 1}});
}

TEST(TreeTopology, BalancedShape) {
  expect_one_aggregate_at_twice_depth_lag({4, 2, 2, {1, 1, 2, 2}});
  expect_one_aggregate_at_twice_depth_lag({7, 3, 2, {1, 1, 1, 2, 2, 2, 2}});
}

TEST(TreeTopology, SingleNode) {
  expect_one_aggregate_at_twice_depth_lag({1, 0, 1, {1}});
}

TEST(CombiningTree, LinkDelayLagsDelivery) {
  sim::Simulator sim;
  // Two members under the root, 5 time-unit links: aggregate reaches them
  // at round_start + 2 * 5.
  CombiningTree tree(&sim, 2, 1,
                     {.period = 1000, .link_delay = 5, .first_round = 100});
  std::vector<Participant> parts(2);
  parts[0].local = {4.0};
  parts[1].local = {8.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(200);
  ASSERT_EQ(parts[0].received.size(), 1u);
  EXPECT_EQ(parts[0].received_at[0], 110);
  EXPECT_DOUBLE_EQ(parts[0].received[0][0], 12.0);
}

TEST(CombiningTree, OverlappingRoundsStayConsistent) {
  sim::Simulator sim;
  // Depth-2 binary tree: the lag (2 * 2 * 4 = 16) exceeds the period, so
  // several rounds in flight at once must not mix their sums.
  CombiningTree tree(&sim, 3, 1,
                     {.period = 3, .link_delay = 4, .fanout = 2});
  std::vector<Participant> parts(3);
  for (auto& p : parts) p.local = {1.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(100);
  ASSERT_GE(parts[2].received.size(), 5u);
  for (const auto& agg : parts[2].received) EXPECT_DOUBLE_EQ(agg[0], 3.0);
}

TEST(CombiningTree, InteriorNodesMayHaveNoProvider) {
  sim::Simulator sim;
  // Member 0 is the interior node above member 2 in a binary tree; attached
  // without a provider it contributes zeros and still combines.
  CombiningTree tree(&sim, 3, 1, {.period = 100, .link_delay = 0, .fanout = 2});
  std::vector<Participant> parts(2);
  parts[0].local = {5.0};
  parts[1].local = {7.0};
  for (std::size_t i = 0; i < parts.size(); ++i) {
    Participant* p = &parts[i];
    tree.attach(
        i + 1, [p] { return p->local; },
        [p](std::uint64_t, const std::vector<double>& agg) {
          p->received.push_back(agg);
        });
  }

  tree.start();
  sim.run_until(10);
  ASSERT_EQ(parts[1].received.size(), 1u);
  EXPECT_DOUBLE_EQ(parts[1].received[0][0], 12.0);
}

TEST(CombiningTree, StopHaltsRounds) {
  sim::Simulator sim;
  CombiningTree tree(&sim, 1, 1, {.period = 10, .link_delay = 0});
  std::vector<Participant> parts(1);
  parts[0].local = {1.0};
  attach_all(tree, sim, parts);

  tree.start();
  sim.run_until(25);
  tree.stop();
  const auto rounds = tree.rounds_completed();
  sim.run_until(200);
  EXPECT_EQ(tree.rounds_completed(), rounds);
}

// --- PairwiseExchange --------------------------------------------------------

TEST(PairwiseExchange, DeliversSumsWithQuadraticMessages) {
  sim::Simulator sim;
  const std::size_t n = 6;
  PairwiseExchange exchange(&sim, n, 1, /*period=*/100, /*link_delay=*/2);
  std::vector<Participant> parts(n);
  for (std::size_t i = 0; i < n; ++i) {
    parts[i].local = {static_cast<double>(i + 1)};
    Participant* p = &parts[i];
    exchange.attach(
        i, [p] { return p->local; },
        [p](std::uint64_t, const std::vector<double>& agg) {
          p->received.push_back(agg);
        });
  }

  exchange.start(0);
  sim.run_until(50);
  for (const auto& p : parts) {
    ASSERT_EQ(p.received.size(), 1u);
    EXPECT_DOUBLE_EQ(p.received[0][0], 21.0);  // 1+2+...+6
  }
  EXPECT_EQ(exchange.messages_sent(), n * (n - 1));
}

TEST(PairwiseExchange, MessageCountDominatesCombiningTree) {
  // The paper's scalability claim: 2(n-1) vs n(n-1) messages per round.
  for (std::size_t n : {4u, 8u, 16u}) {
    EXPECT_LT(2 * (n - 1), n * (n - 1));
  }
}

}  // namespace
}  // namespace sharegrid::coord
