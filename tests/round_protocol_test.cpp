// Tests for the sans-IO round protocol (coord/round_protocol.hpp) with no
// sockets and a fake clock: every input is a direct call, every output is a
// recorded frame or a member callback. One table row per rejection check
// (each must count once and change nothing else), the election, lease-ack
// and split-brain paths step by step, and a three-process round routed by
// hand.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "coord/round_protocol.hpp"
#include "coord/snapshot_wire.hpp"
#include "util/assert.hpp"

namespace sharegrid {
namespace {

using coord::RoundProtocol;
using coord::wire::Frame;
using coord::wire::FrameType;

constexpr std::size_t kProcesses = 3;
constexpr std::int64_t kPeriod = 1000;
constexpr std::uint64_t kTtl = 1'000'000;

/// A frame the protocol handed to its sender.
struct Sent {
  std::size_t peer = 0;
  Frame frame;
};

/// One process hosting one member with a two-slot demand vector; what it
/// sends is recorded, not delivered.
struct Node {
  explicit Node(std::size_t index, std::int64_t lease_ttl = kTtl)
      : protocol(1, 2, options(index, lease_ttl, &started), kProcesses,
                 [this](std::size_t peer, const Frame& frame) {
                   sent.push_back({peer, frame});
                 }) {
    protocol.attach(
        0,
        [index] {
          return std::vector<double>{1.0 + static_cast<double>(index), 0.5};
        },
        [this](std::uint64_t round, const std::vector<double>& sum) {
          delivered.push_back(round);
          sums.push_back(sum);
        });
    protocol.start();
  }

  static RoundProtocol::Options options(std::size_t index,
                                        std::int64_t lease_ttl,
                                        std::vector<std::uint64_t>* started) {
    RoundProtocol::Options o;
    o.process_index = index;
    o.member_offset = index;
    o.fleet_size = kProcesses;
    o.round_period_usec = kPeriod;
    o.round_deadline_usec = 100'000;
    o.stale_after_usec = 10'000'000;
    o.lease_ttl_usec = lease_ttl;
    o.on_round_start = [started](std::uint64_t round) {
      started->push_back(round);
    };
    return o;
  }

  std::vector<std::uint64_t> started;
  std::vector<std::uint64_t> delivered;
  std::vector<std::vector<double>> sums;
  std::vector<Sent> sent;
  RoundProtocol protocol;
};

/// HELLO aux for a process hosting exactly global member @p member.
std::uint64_t range(std::uint64_t member) { return (member << 32) | 1; }

Frame lease(std::uint32_t root, std::uint64_t incarnation,
            std::uint64_t ttl = kTtl) {
  Frame f;
  f.type = FrameType::kLease;
  f.member = root;
  f.incarnation = incarnation;
  f.aux = ttl;
  return f;
}

Frame ack(std::uint32_t from, std::uint64_t incarnation, std::uint64_t round) {
  Frame f;
  f.type = FrameType::kLeaseAck;
  f.member = from;
  f.incarnation = incarnation;
  f.round = round;
  return f;
}

Frame round_start(std::uint64_t round) {
  Frame f;
  f.type = FrameType::kRoundStart;
  f.round = round;
  return f;
}

Frame report(std::uint64_t round, std::uint32_t member,
             std::vector<double> values = {1.0, 1.0}) {
  Frame f;
  f.type = FrameType::kReport;
  f.round = round;
  f.member = member;
  f.values = std::move(values);
  return f;
}

Frame aggregate(std::uint64_t round, std::vector<double> values = {3.0, 3.0}) {
  Frame f;
  f.type = FrameType::kAggregate;
  f.round = round;
  f.values = std::move(values);
  return f;
}

Frame hello() {
  Frame f;
  f.type = FrameType::kHello;
  return f;
}

/// Process 0, the bootstrap root, with round 1 open over all three
/// processes (its own report in, two pending).
std::unique_ptr<Node> root_with_open_round() {
  auto node = std::make_unique<Node>(0);
  node->protocol.peer_up(1, range(1));
  node->protocol.peer_up(2, range(2));
  node->protocol.tick(0);
  node->sent.clear();
  return node;
}

/// Process 1 following root 0 (lease incarnation 1), after round 1 was
/// started, reported and delivered.
std::unique_ptr<Node> follower() {
  auto node = std::make_unique<Node>(1);
  node->protocol.peer_up(0, range(0));
  node->protocol.peer_up(2, range(2));
  node->protocol.receive(0, lease(0, 1), 0);
  node->protocol.receive(0, round_start(1), 0);
  node->protocol.receive(0, aggregate(1), 0);
  node->sent.clear();
  return node;
}

/// Process 1 before any lease reached it.
std::unique_ptr<Node> fresh_follower() {
  auto node = std::make_unique<Node>(1);
  node->protocol.peer_up(0, range(0));
  return node;
}

/// Everything a rejected frame must leave untouched.
auto observe(const Node& node) {
  const RoundProtocol& p = node.protocol;
  return std::make_tuple(p.rounds_completed(), p.rounds_abandoned(),
                         p.is_root(), p.has_root(), p.root_index(),
                         p.lease_incarnation(), p.members_live(),
                         p.elections(), p.stale_fallbacks(),
                         node.started.size(), node.delivered.size());
}

struct Row {
  std::string reason;
  std::function<std::unique_ptr<Node>()> setup;
  std::function<void(RoundProtocol&)> feed;
  /// The audit build fires on this input before the rejection is counted.
  bool audited = false;
};

TEST(RoundProtocol, EveryRejectionCountsOnceAndChangesNothingElse) {
  const std::vector<Row> rows = {
      {"hello member range out of range", root_with_open_round,
       [](RoundProtocol& p) {
         EXPECT_FALSE(p.peer_up(2, (std::uint64_t{5} << 32) | 1));
       }},
      {"report at non-root", follower,
       [](RoundProtocol& p) { p.receive(0, report(1, 1), 0); }},
      {"round start from rival root", root_with_open_round,
       [](RoundProtocol& p) { p.receive(1, round_start(9), 0); }},
      {"aggregate from rival root", root_with_open_round,
       [](RoundProtocol& p) { p.receive(1, aggregate(9), 0); }},
      {"unexpected hello frame", follower,
       [](RoundProtocol& p) { p.receive(0, hello(), 0); }},
      {"lease root mismatch", follower,
       [](RoundProtocol& p) { p.receive(2, lease(0, 1), 0); }},
      {"lease ttl zero", follower,
       [](RoundProtocol& p) { p.receive(0, lease(0, 1, 0), 0); }},
      {"stale lease incarnation", follower,
       [](RoundProtocol& p) { p.receive(2, lease(2, 0), 0); }},
      {"rival lease at same incarnation", root_with_open_round,
       [](RoundProtocol& p) { p.receive(1, lease(1, 1), 0); },
       /*audited=*/true},
      {"stale lease ack", root_with_open_round,
       [](RoundProtocol& p) { p.receive(1, ack(1, 0, 0), 0); }},
      {"unexpected lease ack", follower,
       [](RoundProtocol& p) { p.receive(2, ack(2, 1, 0), 0); }},
      {"stale round tag", root_with_open_round,
       [](RoundProtocol& p) { p.receive(1, report(2, 1), 0); }},
      {"report from process outside the round's live set",
       [] {
         // Process 2 was down when round 1 opened and came back inside it.
         auto node = std::make_unique<Node>(0);
         node->protocol.peer_up(1, range(1));
         node->protocol.peer_up(2, range(2));
         node->protocol.peer_down(2);
         node->protocol.tick(0);
         node->protocol.peer_up(2, range(2));
         return node;
       },
       [](RoundProtocol& p) { p.receive(2, report(1, 2), 0); }},
      {"member index outside sender's claimed range", root_with_open_round,
       [](RoundProtocol& p) { p.receive(1, report(1, 2), 0); }},
      {"duplicate member report",
       [] {
         auto node = root_with_open_round();
         node->protocol.receive(1, report(1, 1), 0);
         return node;
       },
       [](RoundProtocol& p) { p.receive(1, report(1, 1), 0); }},
      {"report vector size mismatch", root_with_open_round,
       [](RoundProtocol& p) { p.receive(1, report(1, 1, {1.0}), 0); }},
      {"round start without lease", fresh_follower,
       [](RoundProtocol& p) { p.receive(0, round_start(1), 0); }},
      {"round start from non-root", follower,
       [](RoundProtocol& p) { p.receive(2, round_start(2), 0); }},
      {"stale round tag", follower,
       [](RoundProtocol& p) { p.receive(0, round_start(1), 0); }},
      {"aggregate without lease", fresh_follower,
       [](RoundProtocol& p) { p.receive(0, aggregate(1), 0); }},
      {"aggregate from non-root", follower,
       [](RoundProtocol& p) { p.receive(2, aggregate(2), 0); }},
      {"aggregate vector size mismatch", follower,
       [](RoundProtocol& p) { p.receive(0, aggregate(2, {1.0}), 0); }},
      {"stale round tag", follower,
       [](RoundProtocol& p) { p.receive(0, aggregate(1), 0); }},
  };
  std::set<std::string> reasons;
  for (const Row& row : rows) reasons.insert(row.reason);
  EXPECT_EQ(rows.size(), 23u);    // every call site
  EXPECT_EQ(reasons.size(), 21u);  // every distinct reason

  for (const Row& row : rows) {
    SCOPED_TRACE(row.reason);
    const std::unique_ptr<Node> node = row.setup();
    const auto before = observe(*node);
    const std::uint64_t rejected = node->protocol.frames_rejected();
#if defined(SHAREGRID_AUDIT)
    if (row.audited) {
      EXPECT_THROW(row.feed(node->protocol), ContractViolation);
      continue;
    }
#endif
    row.feed(node->protocol);
    EXPECT_EQ(node->protocol.last_reject_reason(), row.reason);
    EXPECT_EQ(node->protocol.frames_rejected(), rejected + 1);
    EXPECT_TRUE(observe(*node) == before);
  }
}

// A follower whose lease expired acquires only after every lower-index
// peer has refused a dial since its candidacy began: a live session or an
// older refusal both keep it waiting.
TEST(RoundProtocol, ElectionWaitsForEveryLowerPeerToRefuse) {
  Node node(2, /*lease_ttl=*/1000);
  RoundProtocol& p = node.protocol;
  p.peer_up(0, range(0));
  p.receive(0, lease(0, 1, 1000), 0);
  p.dial_refused(1, 500);  // before candidacy: no evidence
  node.sent.clear();

  p.tick(1000);  // expired; peer 0 still has a live session
  EXPECT_FALSE(p.is_root());
  p.peer_down(0);
  p.tick(1100);  // a dropped session is not a refusal
  EXPECT_FALSE(p.is_root());
  p.dial_refused(0, 1200);
  p.tick(1200);  // peer 1's only refusal predates the candidacy
  EXPECT_FALSE(p.is_root());
  EXPECT_TRUE(node.sent.empty());

  p.dial_refused(1, 1300);
  p.tick(1300);
  EXPECT_TRUE(p.is_root());
  EXPECT_EQ(p.elections(), 1u);
  EXPECT_EQ(p.lease_incarnation(), 2u);
  ASSERT_FALSE(node.sent.empty());
  EXPECT_EQ(node.sent.front().peer, RoundProtocol::kEveryone);
  EXPECT_EQ(node.sent.front().frame.type, FrameType::kLease);
  EXPECT_EQ(node.sent.front().frame.incarnation, 2u);
}

// A survivor's lease-ack reporting a round above the root's counter
// abandons the open round and moves the counter past it, so the next round
// tag is one the survivor will accept.
TEST(RoundProtocol, LeaseAckWithAHigherRoundFastForwardsTheCounter) {
  const std::unique_ptr<Node> root = root_with_open_round();
  RoundProtocol& p = root->protocol;
  ASSERT_EQ(root->started, std::vector<std::uint64_t>{1});

  p.receive(1, ack(1, 1, 7), 0);
  EXPECT_EQ(p.rounds_abandoned(), 1u);
  EXPECT_EQ(p.frames_rejected(), 0u);

  p.tick(kPeriod);
  EXPECT_EQ(root->started, (std::vector<std::uint64_t>{1, 8}));
  bool kicked = false;
  for (const Sent& out : root->sent)
    if (out.frame.type == FrameType::kRoundStart) {
      EXPECT_EQ(out.frame.round, 8u);
      kicked = true;
    }
  EXPECT_TRUE(kicked);
}

// Two processes claiming one lease incarnation is split brain: the lease
// audit fires in audit builds; elsewhere the rival is rejected and the root
// keeps its lease.
TEST(RoundProtocol, RivalLeaseAtTheSameIncarnationTripsTheLeaseAudit) {
  const std::unique_ptr<Node> root = root_with_open_round();
#if defined(SHAREGRID_AUDIT)
  try {
    root->protocol.receive(1, lease(1, 1), 0);
    ADD_FAILURE() << "audit_lease_monotone did not fire";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("split brain"), std::string::npos)
        << e.what();
  }
#else
  root->protocol.receive(1, lease(1, 1), 0);
  EXPECT_EQ(root->protocol.last_reject_reason(),
            "rival lease at same incarnation");
#endif
  EXPECT_TRUE(root->protocol.is_root());
  EXPECT_EQ(root->protocol.lease_incarnation(), 1u);
}

// Three protocols wired by hand: frames move only when the test routes
// them, and every process receives the member-order sum of the samples.
TEST(RoundProtocol, ThreeProcessRoundRoutedByHand) {
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < kProcesses; ++i)
    nodes.push_back(std::make_unique<Node>(i));
  for (std::size_t i = 0; i < kProcesses; ++i)
    for (std::size_t j = 0; j < kProcesses; ++j)
      if (i != j) nodes[i]->protocol.peer_up(j, range(j));

  std::int64_t now = 0;
  for (int step = 0; step < 10; ++step, now += 10) {
    for (std::size_t from = 0; from < kProcesses; ++from) {
      nodes[from]->protocol.tick(now);
      std::vector<Sent> out_frames;
      out_frames.swap(nodes[from]->sent);
      for (const Sent& out : out_frames)
        for (std::size_t to = 0; to < kProcesses; ++to)
          if (to != from &&
              (out.peer == RoundProtocol::kEveryone || out.peer == to))
            nodes[to]->protocol.receive(from, out.frame, now);
    }
  }
  const std::vector<double> expected = {1.0 + 2.0 + 3.0, 1.5};
  for (const auto& node : nodes) {
    ASSERT_EQ(node->delivered, std::vector<std::uint64_t>{1});
    EXPECT_EQ(node->sums.front(), expected);
    EXPECT_EQ(node->protocol.frames_rejected(), 0u);
  }
  EXPECT_EQ(nodes[0]->protocol.rounds_completed(), 1u);
  EXPECT_EQ(nodes[0]->protocol.members_live(), kProcesses);
}

}  // namespace
}  // namespace sharegrid
