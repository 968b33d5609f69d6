// Tests for the cross-process snapshot transport (coord/socket_transport.hpp)
// and its wire codec: bitwise aggregate parity with a member-order sum,
// membership pruning and round-boundary rejoin, lease-based root election
// with incarnation fencing, the deadline -> staleness -> conservative-1/R
// degradation path (election disabled), star message accounting, the
// malformed-frame rejection table for both v1 snapshot and v2 membership
// frames (pure codec and raw bytes injected at a live process), and the
// delivery-side audits. The protocol's own decisions are tested without
// sockets in round_protocol_test.cpp.
//
// All protocol timing here uses fake caller-supplied clocks — poll(now) owns
// every deadline, lease expiry and election — so only the byte transport
// itself is real. Real sleeps appear solely to let the peer's bytes cross
// the loopback between polls.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "coord/control_plane.hpp"
#include "coord/snapshot_transport.hpp"
#include "coord/snapshot_wire.hpp"
#include "coord/socket_transport.hpp"
#include "net/tcp.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace sharegrid {
namespace {

/// Runs @p fn, which must throw ContractViolation, and returns its message.
template <class Fn>
std::string violation_message(Fn&& fn) {
  try {
    fn();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a ContractViolation, but no check fired";
  return {};
}

/// Polls every node with a shared fake clock until @p done or ~2000 rounds
/// of real 300 us beats have passed (the beats let bytes cross the
/// loopback between polls).
bool pump_until(const std::vector<coord::SocketTransport*>& nodes,
                std::int64_t* now, std::int64_t step,
                const std::function<bool()>& done) {
  for (int i = 0; i < 2000 && !done(); ++i) {
    for (coord::SocketTransport* node : nodes) node->poll(*now);
    *now += step;
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  return done();
}

/// Grabs an ephemeral loopback port the OS considers free right now. The
/// probe listener closes on return, so there is a tiny reuse race — fine
/// for tests that must pre-agree on a full-mesh port map.
std::uint16_t pick_port() {
  const net::Socket probe = net::Socket::listen_on_loopback(0);
  return probe.local_port();
}

coord::SocketTransport::Options root_options(std::size_t fleet) {
  coord::SocketTransport::Options options;
  options.peers.assign(fleet, "127.0.0.1:0");
  options.process_index = 0;
  options.fleet_size = fleet;
  options.round_period_usec = 1000;
  options.round_deadline_usec = 1'000'000;
  return options;
}

coord::SocketTransport::Options leaf_options(
    const coord::SocketTransport::Options& root, std::uint16_t root_port,
    std::size_t index) {
  coord::SocketTransport::Options options = root;
  options.peers[0] = "127.0.0.1:" + std::to_string(root_port);
  options.process_index = index;
  options.member_offset = index;
  options.reconnect_base_usec = 1000;
  return options;
}

/// A hand-driven raw peer: speaks the wire protocol over one socket so a
/// test can impersonate a process precisely (a zombie root, a rival, a
/// replayer) while polling the real transports under a fake clock.
struct RawPeer {
  net::Socket sock;
  net::FrameReader frames;

  explicit RawPeer(std::uint16_t port)
      : sock(net::Socket::connect_loopback(port)) {
    sock.set_read_timeout_ms(5);
  }
  void send(const coord::wire::Frame& frame) {
    sock.write_frame(coord::wire::encode(frame));
  }
  void hello(std::uint32_t process, std::uint64_t incarnation,
             std::uint64_t member_offset, std::uint64_t member_count) {
    coord::wire::Frame f;
    f.type = coord::wire::FrameType::kHello;
    f.member = process;
    f.incarnation = incarnation;
    f.aux = (member_offset << 32) | member_count;
    send(f);
  }
  void lease(std::uint32_t process, std::uint64_t incarnation,
             std::uint64_t round, std::uint64_t ttl_usec) {
    coord::wire::Frame f;
    f.type = coord::wire::FrameType::kLease;
    f.member = process;
    f.incarnation = incarnation;
    f.round = round;
    f.aux = ttl_usec;
    send(f);
  }
  void round_start(std::uint64_t round) {
    coord::wire::Frame f;
    f.type = coord::wire::FrameType::kRoundStart;
    f.round = round;
    send(f);
  }
  /// Reads (draining everything else) until a decoded frame satisfies
  /// @p pred, polling @p nodes between reads; false on exhaustion.
  bool read_until(const std::vector<coord::SocketTransport*>& nodes,
                  std::int64_t* now,
                  const std::function<bool(const coord::wire::Frame&)>& pred) {
    for (int i = 0; i < 500; ++i) {
      for (coord::SocketTransport* node : nodes) node->poll(*now);
      *now += 500;
      const net::ReadResult r = sock.read_some();
      if (r.status == net::ReadStatus::kData) {
        frames.feed(r.data);
        std::string payload;
        while (frames.next(&payload) == net::FrameReader::Event::kFrame) {
          coord::wire::Frame f;
          if (coord::wire::decode(payload, &f) ==
                  coord::wire::DecodeStatus::kOk &&
              pred(f))
            return true;
        }
      }
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Aggregate parity: the wire fleet must reproduce a plain member-order sum
// bitwise — same member order, same floating-point summation order.
// ---------------------------------------------------------------------------

TEST(SocketTransport, AggregatesMatchInProcessBitwise) {
  constexpr std::size_t kFleet = 3;
  constexpr int kRounds = 4;
  // Awkward, non-round values so a different summation order would show.
  auto provider = [](std::size_t m, std::uint64_t round) {
    return std::vector<double>{0.1 * static_cast<double>(m + 1) + 1e-13,
                               1.0 / (3.0 + static_cast<double>(m + round))};
  };

  // Oracle: each round's samples summed inline in member order, so the
  // reference shares no code with the protocol under test.
  std::vector<std::vector<double>> expected;
  for (std::uint64_t round = 1; round <= kRounds; ++round) {
    std::vector<double> sum(2, 0.0);
    for (std::size_t m = 0; m < kFleet; ++m) {
      const std::vector<double> sample = provider(m, round);
      for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += sample[i];
    }
    expected.push_back(sum);
  }

  // Wire fleet: one root + two leaves in this process.
  const auto base = root_options(kFleet);
  coord::SocketTransport root(1, 2, base);
  std::vector<std::vector<double>> root_sums;
  root.attach(
      0, [&] { return provider(0, root.rounds_completed() + 1); },
      [&](std::uint64_t, const std::vector<double>& sum) {
        root_sums.push_back(sum);
      });
  root.start();

  std::vector<std::unique_ptr<coord::SocketTransport>> leaves;
  std::vector<std::vector<std::vector<double>>> leaf_sums(kFleet);
  std::vector<std::uint64_t> leaf_round(kFleet, 0);
  for (std::size_t m = 1; m < kFleet; ++m) {
    // Providers sample right after on_round_start, so the hook is where a
    // leaf learns which round it is contributing to.
    coord::SocketTransport::Options options =
        leaf_options(base, root.listen_port(), m);
    options.on_round_start = [&leaf_round, m](std::uint64_t round) {
      leaf_round[m] = round;
    };
    auto leaf =
        std::make_unique<coord::SocketTransport>(1, 2, std::move(options));
    leaf->attach(
        0, [&, m] { return provider(m, leaf_round[m]); },
        [&, m](std::uint64_t, const std::vector<double>& sum) {
          leaf_sums[m].push_back(sum);
        });
    leaf->start();
    leaves.push_back(std::move(leaf));
  }

  std::vector<coord::SocketTransport*> nodes{&root};
  for (const auto& leaf : leaves) nodes.push_back(leaf.get());
  std::int64_t now = 0;
  const bool done = pump_until(nodes, &now, 500, [&] {
    return root_sums.size() >= static_cast<std::size_t>(kRounds) &&
           leaf_sums[1].size() >= static_cast<std::size_t>(kRounds) &&
           leaf_sums[2].size() >= static_cast<std::size_t>(kRounds);
  });
  for (coord::SocketTransport* node : nodes) node->stop();
  ASSERT_TRUE(done) << "fleet never completed " << kRounds << " rounds";

  for (std::size_t r = 0; r < static_cast<std::size_t>(kRounds); ++r) {
    EXPECT_EQ(root_sums[r], expected[r]) << "round " << r + 1;
    EXPECT_EQ(leaf_sums[1][r], expected[r]) << "round " << r + 1;
    EXPECT_EQ(leaf_sums[2][r], expected[r]) << "round " << r + 1;
  }
  EXPECT_EQ(root.rounds_abandoned(), 0u);
  EXPECT_EQ(root.frames_rejected(), 0u);
  // The full, churn-free fleet: every round carried all R members.
  EXPECT_EQ(root.protocol().members_live(), kFleet);
  EXPECT_EQ(root.protocol().readmissions(), 0u);
  EXPECT_EQ(root.protocol().elections(), 0u);
}

// ---------------------------------------------------------------------------
// Membership: killing a leaf prunes it from the live set at the next round
// boundary and rounds resume without it; restarting it (with a bumped
// incarnation) folds it back in at a boundary — aggregates only ever show
// complete membership sets, never a mid-round mixture.
// ---------------------------------------------------------------------------

TEST(SocketTransport, LeafLossPrunesAndRejoinFoldsInAtARoundBoundary) {
  constexpr std::size_t kFleet = 3;
  auto base = root_options(kFleet);
  base.round_deadline_usec = 20'000;
  // Constant power-of-two demands make every membership set's sum unique:
  // {root, leaf1, leaf2} -> 7, {root, leaf1} -> 3. Anything else is a bug.
  coord::SocketTransport root(1, 1, base);
  std::vector<double> root_sums;
  root.attach(
      0, [] { return std::vector<double>{1.0}; },
      [&](std::uint64_t, const std::vector<double>& sum) {
        root_sums.push_back(sum[0]);
      });
  root.start();

  auto leaf1 = std::make_unique<coord::SocketTransport>(
      1, 1, leaf_options(base, root.listen_port(), 1));
  std::vector<double> leaf1_sums;
  leaf1->attach(
      0, [] { return std::vector<double>{2.0}; },
      [&](std::uint64_t, const std::vector<double>& sum) {
        leaf1_sums.push_back(sum[0]);
      });
  leaf1->start();

  auto leaf2 = std::make_unique<coord::SocketTransport>(
      1, 1, leaf_options(base, root.listen_port(), 2));
  leaf2->attach(
      0, [] { return std::vector<double>{4.0}; },
      [](std::uint64_t, const std::vector<double>&) {});
  leaf2->start();

  // Full fleet first.
  std::int64_t now = 0;
  ASSERT_TRUE(pump_until({&root, leaf1.get(), leaf2.get()}, &now, 500, [&] {
    return !leaf1_sums.empty() && leaf1_sums.back() == 7.0;
  }));
  EXPECT_EQ(root.protocol().members_live(), kFleet);

  // Kill leaf 2 abruptly. Within a deadline the open round is abandoned,
  // the next boundary captures the shrunken live set, and rounds *resume*
  // (membership pruning, not staleness) with the smaller sum.
  leaf2->stop();
  leaf2.reset();
  ASSERT_TRUE(pump_until({&root, leaf1.get()}, &now, 2'000, [&] {
    return !leaf1_sums.empty() && leaf1_sums.back() == 3.0;
  }));
  EXPECT_EQ(root.protocol().members_live(), kFleet - 1);

  // Restart it as a new process incarnation. The root's session layer sees
  // a rejoin (same process index, higher incarnation) and the next round
  // boundary folds the member back in.
  coord::SocketTransport::Options rejoin_options =
      leaf_options(base, root.listen_port(), 2);
  rejoin_options.incarnation = 2;
  auto leaf2b =
      std::make_unique<coord::SocketTransport>(1, 1, rejoin_options);
  std::vector<double> leaf2b_sums;
  leaf2b->attach(
      0, [] { return std::vector<double>{4.0}; },
      [&](std::uint64_t, const std::vector<double>& sum) {
        leaf2b_sums.push_back(sum[0]);
      });
  leaf2b->start();
  ASSERT_TRUE(
      pump_until({&root, leaf1.get(), leaf2b.get()}, &now, 2'000, [&] {
        return !leaf1_sums.empty() && leaf1_sums.back() == 7.0 &&
               !leaf2b_sums.empty();
      }));
  EXPECT_EQ(root.protocol().members_live(), kFleet);
  EXPECT_GE(root.protocol().readmissions(), 1u);
  EXPECT_GE(root.reconnects(), 1u);

  // The boundary guarantee, everywhere: every aggregate ever delivered is
  // the sum of a complete captured membership set — 7 or 3, never a blend.
  for (const double sum : root_sums) EXPECT_TRUE(sum == 7.0 || sum == 3.0);
  for (const double sum : leaf1_sums) EXPECT_TRUE(sum == 7.0 || sum == 3.0);
  for (const double sum : leaf2b_sums) EXPECT_EQ(sum, 7.0);

  root.stop();
  leaf1->stop();
  leaf2b->stop();
}

// ---------------------------------------------------------------------------
// Degradation with election disabled: kill the root and the survivors fall
// back to the conservative 1/R regime via the staleness path, exactly like
// the fixed fleet — election off preserves the old failure semantics.
// ---------------------------------------------------------------------------

TEST(SocketTransport, RootLossWithElectionDisabledDegradesToConservative) {
  constexpr std::size_t kFleet = 2;
  auto base = root_options(kFleet);
  base.round_deadline_usec = 20'000;
  base.stale_after_usec = 50'000;

  const test::FixedRateScheduler scheduler({100.0});
  coord::ControlPlaneConfig cp;
  cp.window = 100 * kMillisecond;
  cp.redirector_count = kFleet;

  auto root = std::make_unique<coord::SocketTransport>(1, 1, base);
  root->attach(
      0, [] { return std::vector<double>{1.0}; },
      [](std::uint64_t, const std::vector<double>&) {});
  root->start();

  // The survivor hosts a real ControlPlane member, so this also pins the
  // ControlPlane::connect -> attach_stale_handler -> readmit wiring end to
  // end.
  coord::SocketTransport::Options survivor_options =
      leaf_options(base, root->listen_port(), 1);
  survivor_options.election_enabled = false;
  coord::SocketTransport survivor(1, 1, survivor_options);
  coord::ControlPlane plane(&scheduler, cp);
  coord::ControlPlane::Member* member = plane.add_member();
  plane.connect(&survivor);
  survivor.start();

  // Healthy fleet first: one full round must deliver everywhere and pull
  // the member out of the conservative regime.
  std::int64_t now = 0;
  ASSERT_TRUE(pump_until({root.get(), &survivor}, &now, 500,
                         [&] { return member->global().valid; }));

  // Kill the root abruptly. The survivor keeps polling; its redials are
  // refused, but with election disabled it never runs for root — within
  // the staleness budget the fallback fires instead.
  root->stop();
  root.reset();
  ASSERT_TRUE(pump_until({&survivor}, &now, 5'000, [&] {
    return survivor.protocol().stale_fallbacks() >= 1 &&
           !member->global().valid;
  }));
  EXPECT_EQ(survivor.protocol().elections(), 0u);

  // The next window plans exactly like a never-snapshotted member: the
  // conservative cross-fleet slice audit must hold again.
  plane.end_windows();
  plane.begin_windows(100 * kMillisecond);
  plane.audit_window_slices();

  survivor.stop();
}

// ---------------------------------------------------------------------------
// Election: kill the root and the lowest live member acquires the lease
// once every lower-index peer has refused its dials; the other survivor
// adopts the new root and rounds resume with strictly monotone tags.
// ---------------------------------------------------------------------------

TEST(SocketTransport, RootFailureElectsLowestLiveMember) {
  constexpr std::size_t kFleet = 3;
  // Election requires a full mesh with pre-agreed ports: survivors must be
  // able to dial each other, not just the (dead) root.
  std::vector<std::string> peers;
  for (std::size_t p = 0; p < kFleet; ++p)
    peers.push_back("127.0.0.1:" + std::to_string(pick_port()));

  auto make_options = [&](std::size_t index) {
    coord::SocketTransport::Options options;
    options.peers = peers;
    options.process_index = index;
    options.member_offset = index;
    options.fleet_size = kFleet;
    options.round_period_usec = 1000;
    options.round_deadline_usec = 20'000;
    options.stale_after_usec = 10'000'000;  // staleness must not interfere
    options.lease_ttl_usec = 50'000;
    options.reconnect_base_usec = 1000;
    options.reconnect_max_usec = 8000;
      return options;
  };

  auto root = std::make_unique<coord::SocketTransport>(1, 1, make_options(0));
  root->attach(
      0, [] { return std::vector<double>{1.0}; },
      [](std::uint64_t, const std::vector<double>&) {});
  root->start();
  coord::SocketTransport s1(1, 1, make_options(1));
  std::vector<std::uint64_t> s1_rounds;
  s1.attach(
      0, [] { return std::vector<double>{2.0}; },
      [&](std::uint64_t round, const std::vector<double>&) {
        s1_rounds.push_back(round);
      });
  s1.start();
  coord::SocketTransport s2(1, 1, make_options(2));
  std::vector<std::uint64_t> s2_rounds;
  std::vector<double> s2_sums;
  s2.attach(
      0, [] { return std::vector<double>{4.0}; },
      [&](std::uint64_t round, const std::vector<double>& sum) {
        s2_rounds.push_back(round);
        s2_sums.push_back(sum[0]);
      });
  s2.start();

  std::int64_t now = 0;
  ASSERT_TRUE(pump_until({root.get(), &s1, &s2}, &now, 500,
                         [&] { return s2_rounds.size() >= 2; }));
  EXPECT_EQ(s1.protocol().root_index(), 0u);

  // Kill the root. Lease expiry (fake clock) plus a refused dial to every
  // lower-index peer makes survivor 1 — and only survivor 1 — acquire:
  // survivor 2's candidacy is blocked by its live session to survivor 1.
  root->stop();
  root.reset();
  const coord::RoundProtocol& p1 = s1.protocol();
  const coord::RoundProtocol& p2 = s2.protocol();
  ASSERT_TRUE(pump_until({&s1, &s2}, &now, 2'000, [&] {
    return p1.is_root() && p2.has_root() && p2.root_index() == 1 &&
           s2_sums.size() >= 2 && s2_sums.back() == 6.0;
  })) << "s1 root=" << p1.is_root() << " elections=" << p1.elections()
      << " s2 root_index=" << (p2.has_root() ? p2.root_index() : 999)
      << " deliveries=" << s2_sums.size();
  EXPECT_EQ(p1.elections(), 1u);
  EXPECT_EQ(p2.elections(), 0u);
  EXPECT_GE(p1.lease_incarnation(), 2u);

  // Round tags stayed strictly monotone across the root change (the
  // delivery audit would have thrown otherwise; pin it explicitly too).
  for (std::size_t i = 1; i < s2_rounds.size(); ++i)
    EXPECT_LT(s2_rounds[i - 1], s2_rounds[i]);

  s1.stop();
  s2.stop();
}

// ---------------------------------------------------------------------------
// Incarnation fencing, hand-driven: a deposed root that keeps sending
// round-starts is rejected and answered with the newer lease incarnation;
// a live root that learns of a newer lease steps down.
// ---------------------------------------------------------------------------

TEST(SocketTransport, ZombieRootRoundsAreFencedByIncarnation) {
  constexpr std::size_t kFleet = 3;
  // The follower under test dials nobody (all peers inbound-only); the two
  // rival "roots" are hand-driven sockets.
  coord::SocketTransport::Options options = root_options(kFleet);
  options.process_index = 2;
  options.member_offset = 2;
  coord::SocketTransport follower(1, 1, options);
  follower.attach(
      0, [] { return std::vector<double>{8.0}; },
      [](std::uint64_t, const std::vector<double>&) {});
  follower.start();
  std::vector<coord::SocketTransport*> nodes{&follower};
  std::int64_t now = 0;

  // Process 0 introduces itself as the bootstrap root and drives round 1;
  // the follower reports to it.
  RawPeer z0(follower.listen_port());
  z0.hello(0, 1, 0, 1);
  z0.lease(0, 1, 0, 10'000'000);
  ASSERT_TRUE(z0.read_until(nodes, &now, [](const coord::wire::Frame& f) {
    return f.type == coord::wire::FrameType::kLeaseAck && f.incarnation == 1;
  }));
  EXPECT_EQ(follower.protocol().root_index(), 0u);
  z0.round_start(1);
  ASSERT_TRUE(z0.read_until(nodes, &now, [](const coord::wire::Frame& f) {
    return f.type == coord::wire::FrameType::kReport && f.member == 2 &&
           f.round == 1;
  }));

  // Process 1 takes over with a newer lease; the follower adopts it.
  RawPeer z1(follower.listen_port());
  z1.hello(1, 1, 1, 1);
  z1.lease(1, 2, 1, 10'000'000);
  ASSERT_TRUE(z1.read_until(nodes, &now, [](const coord::wire::Frame& f) {
    return f.type == coord::wire::FrameType::kLeaseAck && f.incarnation == 2;
  }));
  EXPECT_EQ(follower.protocol().root_index(), 1u);
  EXPECT_EQ(follower.protocol().lease_incarnation(), 2u);

  // The deposed root keeps driving rounds: rejected, and the answer is a
  // lease-ack carrying incarnation 2 — the fence that makes it step down.
  const std::uint64_t rejected_before = follower.frames_rejected();
  z0.round_start(2);
  ASSERT_TRUE(z0.read_until(nodes, &now, [](const coord::wire::Frame& f) {
    return f.type == coord::wire::FrameType::kLeaseAck && f.incarnation == 2;
  }));
  EXPECT_GT(follower.frames_rejected(), rejected_before);
  EXPECT_EQ(follower.last_reject_reason(), "round start from non-root");

  follower.stop();
}

TEST(SocketTransport, RootStepsDownWhenANewerLeaseAppears) {
  constexpr std::size_t kFleet = 2;
  coord::SocketTransport root(1, 1, root_options(kFleet));
  root.attach(
      0, [] { return std::vector<double>{1.0}; },
      [](std::uint64_t, const std::vector<double>&) {});
  root.start();
  ASSERT_TRUE(root.protocol().is_root());
  std::vector<coord::SocketTransport*> nodes{&root};
  std::int64_t now = 0;

  // A hand-driven process 1 joins (completing fleet assembly), then claims
  // a much newer lease. The bootstrap root must step down and follow it —
  // all the way to reporting its own member into the rival's round.
  RawPeer rival(root.listen_port());
  rival.hello(1, 1, 1, 1);
  ASSERT_TRUE(rival.read_until(nodes, &now, [](const coord::wire::Frame& f) {
    return f.type == coord::wire::FrameType::kRoundStart;
  }));
  rival.lease(1, 5, 50, 10'000'000);
  ASSERT_TRUE(rival.read_until(nodes, &now, [](const coord::wire::Frame& f) {
    return f.type == coord::wire::FrameType::kLeaseAck && f.incarnation == 5;
  }));
  EXPECT_FALSE(root.protocol().is_root());
  EXPECT_TRUE(root.protocol().has_root());
  EXPECT_EQ(root.protocol().root_index(), 1u);
  EXPECT_EQ(root.protocol().lease_incarnation(), 5u);
  rival.round_start(100);
  ASSERT_TRUE(rival.read_until(nodes, &now, [](const coord::wire::Frame& f) {
    return f.type == coord::wire::FrameType::kReport && f.member == 0 &&
           f.round == 100;
  }));

  root.stop();
}

// ---------------------------------------------------------------------------
// Wire codec rejection table: every malformed shape is a status, never a
// throw, never a crash.
// ---------------------------------------------------------------------------

TEST(SocketTransportWire, EncodeDecodeRoundTrips) {
  coord::wire::Frame frame;
  frame.type = coord::wire::FrameType::kReport;
  frame.round = 0x0123456789abcdefULL;
  frame.member = 7;
  frame.values = {1.5, -0.0, 1e-300};
  coord::wire::Frame out;
  ASSERT_EQ(coord::wire::decode(coord::wire::encode(frame), &out),
            coord::wire::DecodeStatus::kOk);
  EXPECT_EQ(out.type, frame.type);
  EXPECT_EQ(out.round, frame.round);
  EXPECT_EQ(out.member, frame.member);
  EXPECT_EQ(out.values, frame.values);  // bit-exact, -0.0 included
}

TEST(SocketTransportWire, MembershipFramesRoundTripAndHaveAPinnedLayout) {
  for (const auto type :
       {coord::wire::FrameType::kHello, coord::wire::FrameType::kLease,
        coord::wire::FrameType::kLeaseAck}) {
    coord::wire::Frame frame;
    frame.type = type;
    frame.round = 0xfeedfacecafef00dULL;
    frame.member = 3;
    frame.incarnation = 0x1122334455667788ULL;
    frame.aux = (7ULL << 32) | 2ULL;
    const std::string bytes = coord::wire::encode(frame);
    // Membership frames are exactly header (24) + incarnation + aux (16),
    // version 2, count 0 — byte positions pinned so the layout cannot
    // drift without failing here. All fields little-endian.
    ASSERT_EQ(bytes.size(), 40u);
    EXPECT_EQ(static_cast<unsigned char>(bytes[4]), 2u);   // version lo
    EXPECT_EQ(static_cast<unsigned char>(bytes[5]), 0u);   // version hi
    EXPECT_EQ(static_cast<unsigned char>(bytes[6]),
              static_cast<unsigned char>(type));           // type lo
    EXPECT_EQ(static_cast<unsigned char>(bytes[20]), 0u);  // count == 0
    EXPECT_EQ(static_cast<unsigned char>(bytes[24]), 0x88u);  // inc lo byte
    EXPECT_EQ(static_cast<unsigned char>(bytes[31]), 0x11u);  // inc hi byte
    EXPECT_EQ(static_cast<unsigned char>(bytes[32]), 2u);     // aux lo byte
    coord::wire::Frame out;
    ASSERT_EQ(coord::wire::decode(bytes, &out),
              coord::wire::DecodeStatus::kOk);
    EXPECT_EQ(out.type, frame.type);
    EXPECT_EQ(out.round, frame.round);
    EXPECT_EQ(out.member, frame.member);
    EXPECT_EQ(out.incarnation, frame.incarnation);
    EXPECT_EQ(out.aux, frame.aux);
    EXPECT_TRUE(out.values.empty());
  }
}

TEST(SocketTransportWire, MalformedFrameTable) {
  coord::wire::Frame valid;
  valid.type = coord::wire::FrameType::kAggregate;
  valid.round = 42;
  valid.values = {1.0, 2.0};
  const std::string good = coord::wire::encode(valid);

  struct Case {
    const char* name;
    std::string bytes;
    coord::wire::DecodeStatus expected;
  };
  std::vector<Case> cases;
  // Every truncation of a valid frame (header and payload) must be rejected
  // as kTruncated or kSizeMismatch — never accepted, never a crash.
  for (std::size_t len = 0; len < good.size(); ++len) {
    cases.push_back({"truncated", good.substr(0, len),
                     len < 24 ? coord::wire::DecodeStatus::kTruncated
                              : coord::wire::DecodeStatus::kSizeMismatch});
  }
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  cases.push_back({"bad magic", bad_magic,
                   coord::wire::DecodeStatus::kBadMagic});
  std::string bad_version = good;
  bad_version[4] = 9;
  cases.push_back({"bad version", bad_version,
                   coord::wire::DecodeStatus::kBadVersion});
  std::string bad_type = good;
  bad_type[6] = 99;
  cases.push_back({"bad type", bad_type, coord::wire::DecodeStatus::kBadType});
  std::string bad_count = good;
  bad_count[20] = 3;  // claims 3 doubles, carries 2
  cases.push_back({"count too large", bad_count,
                   coord::wire::DecodeStatus::kSizeMismatch});
  std::string extra = good + "trailing-garbage";
  cases.push_back({"trailing bytes", extra,
                   coord::wire::DecodeStatus::kSizeMismatch});

  // The v2 membership shapes get the same treatment.
  coord::wire::Frame lease;
  lease.type = coord::wire::FrameType::kLease;
  lease.round = 7;
  lease.member = 1;
  lease.incarnation = 9;
  lease.aux = 500000;
  const std::string good2 = coord::wire::encode(lease);
  for (std::size_t len = 0; len < good2.size(); ++len) {
    cases.push_back({"truncated lease", good2.substr(0, len),
                     len < 24 ? coord::wire::DecodeStatus::kTruncated
                              : coord::wire::DecodeStatus::kSizeMismatch});
  }
  std::string v2_extra = good2 + "x";
  cases.push_back({"lease trailing byte", v2_extra,
                   coord::wire::DecodeStatus::kSizeMismatch});
  std::string v2_count = good2;
  v2_count[20] = 1;  // membership frames must carry count == 0
  cases.push_back({"lease nonzero count", v2_count,
                   coord::wire::DecodeStatus::kSizeMismatch});
  // Type/version pairing is strict in both directions: a v1 hello and a v2
  // report are confused senders, not forward-compatible frames.
  std::string v1_hello = good2;
  v1_hello[4] = 1;
  cases.push_back({"hello under version 1", v1_hello,
                   coord::wire::DecodeStatus::kBadType});
  std::string v2_report = good;
  v2_report[4] = 2;
  cases.push_back({"report under version 2", v2_report,
                   coord::wire::DecodeStatus::kBadType});
  std::string v2_bad_type = good2;
  v2_bad_type[6] = 7;  // one past kLeaseAck
  cases.push_back({"type out of range", v2_bad_type,
                   coord::wire::DecodeStatus::kBadType});

  for (const Case& c : cases) {
    coord::wire::Frame out;
    EXPECT_EQ(coord::wire::decode(c.bytes, &out), c.expected)
        << c.name << " (" << c.bytes.size() << " bytes)";
  }
}

// ---------------------------------------------------------------------------
// Live rejection: raw malformed bytes injected at a running root must bump
// the reject counters (transport + metrics registry) and leave the protocol
// able to finish rounds with its real peer.
// ---------------------------------------------------------------------------

TEST(SocketTransport, MalformedFramesAreCountedNotFatal) {
  constexpr std::size_t kFleet = 2;
  auto base = root_options(kFleet);
  base.round_deadline_usec = 50'000;
  coord::SocketTransport root(1, 1, base);
  std::uint64_t root_delivered = 0;
  root.attach(
      0, [] { return std::vector<double>{1.0}; },
      [&](std::uint64_t, const std::vector<double>&) { ++root_delivered; });
  root.start();

  auto leaf = std::make_unique<coord::SocketTransport>(
      1, 1, leaf_options(base, root.listen_port(), 1));
  leaf->attach(
      0, [] { return std::vector<double>{2.0}; },
      [](std::uint64_t, const std::vector<double>&) {});
  leaf->start();

  // The attacker dials the root like a peer would, but never completes a
  // HELLO handshake — fleet assembly counts handshaken sessions, so the
  // real leaf is still what lets rounds start.
  net::Socket attacker = net::Socket::connect_loopback(root.listen_port());

  std::int64_t now = 0;

  // (a) undecodable bytes inside a well-formed envelope.
  attacker.write_frame("not-a-snapshot-frame-at-all");
  // (b) a structurally valid report — from a connection that never said
  // HELLO, so the session layer drops it before the round logic sees it.
  coord::wire::Frame bogus;
  bogus.type = coord::wire::FrameType::kReport;
  bogus.round = 1;
  bogus.member = 999;
  bogus.values = {0.0};
  attacker.write_frame(coord::wire::encode(bogus));
  // (c) a frame type the root never accepts from an anonymous connection.
  coord::wire::Frame downstream;
  downstream.type = coord::wire::FrameType::kAggregate;
  downstream.round = 1;
  downstream.values = {0.0};
  attacker.write_frame(coord::wire::encode(downstream));

  ASSERT_TRUE(pump_until({&root, leaf.get()}, &now, 500, [&] {
    return root.frames_rejected() >= 3 && root.rounds_completed() >= 1;
  })) << "rejected=" << root.frames_rejected()
      << " completed=" << root.rounds_completed()
      << " last_reason=" << root.last_reject_reason();
  EXPECT_GE(root_delivered, 1u);

  // (d) an oversized length prefix: framing is unrecoverable, the root must
  // drop that connection (and only that connection) and keep running.
  const std::uint32_t huge = 64u << 20;
  std::string prefix;
  for (int i = 0; i < 4; ++i)
    prefix.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  attacker.write_all(prefix);
  const std::uint64_t before = root.rounds_completed();
  ASSERT_TRUE(pump_until({&root, leaf.get()}, &now, 500, [&] {
    return root.frames_rejected() >= 4 && root.rounds_completed() > before;
  })) << "rejected=" << root.frames_rejected()
      << " completed=" << root.rounds_completed() << " before=" << before
      << " abandoned=" << root.rounds_abandoned()
      << " leaf_rejected=" << leaf->frames_rejected()
      << " leaf_reason=" << leaf->last_reject_reason()
      << " last_reason=" << root.last_reject_reason();
  // On a loaded machine a benign reject can land after the oversized one
  // and overwrite the last reason; the dropped-connection check below is
  // what uniquely pins the oversized path.
  EXPECT_TRUE(root.last_reject_reason() == "oversized length prefix" ||
              root.last_reject_reason() == "frame before hello" ||
              root.last_reject_reason() == "stale round tag")
      << root.last_reject_reason();
  // The attacker's socket was shut down by the root.
  attacker.set_read_timeout_ms(200);
  net::ReadResult result = attacker.read_some();
  while (result.status == net::ReadStatus::kData)
    result = attacker.read_some();
  EXPECT_EQ(result.status, net::ReadStatus::kClosed);

  root.stop();
  leaf->stop();
}

// ---------------------------------------------------------------------------
// Stale round tags and duplicate reports at a live root.
// ---------------------------------------------------------------------------

TEST(SocketTransport, StaleAndDuplicateReportsAreRejected) {
  constexpr std::size_t kFleet = 2;
  const auto base = root_options(kFleet);
  coord::SocketTransport root(1, 1, base);
  root.attach(
      0, [] { return std::vector<double>{1.0}; },
      [](std::uint64_t, const std::vector<double>&) {});
  root.start();
  std::vector<coord::SocketTransport*> nodes{&root};
  std::int64_t now = 0;

  // A hand-driven "leaf": handshakes like a real process 1, then replays.
  RawPeer peer(root.listen_port());
  peer.hello(1, 1, 1, 1);

  // Wait for round-start 1 (the lease and the kick both arrive; the round
  // number rides on the kick).
  ASSERT_TRUE(peer.read_until(nodes, &now, [](const coord::wire::Frame& f) {
    return f.type == coord::wire::FrameType::kRoundStart && f.round == 1;
  }));

  // Send the member-1 report twice: the first completes the round, the
  // replay must be rejected as a duplicate/stale tag, not crash the root.
  coord::wire::Frame report;
  report.type = coord::wire::FrameType::kReport;
  report.round = 1;
  report.member = 1;
  report.values = {2.0};
  peer.send(report);
  peer.send(report);
  // A report whose vector length disagrees with the fleet's must also fall.
  coord::wire::Frame fat = report;
  fat.round = 2;  // guess the next round so only the size check can reject
  fat.values = {1.0, 2.0};
  peer.send(fat);
  // And a report for a member outside the sender's claimed range: process 1
  // said HELLO for global member 1 only, so member 0 is an impersonation.
  coord::wire::Frame outside = report;
  outside.round = 2;
  outside.member = 0;
  peer.send(outside);

  for (int i = 0; i < 2000 && root.frames_rejected() < 3; ++i) {
    root.poll(now);
    now += 500;
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  EXPECT_GE(root.rounds_completed(), 1u);
  EXPECT_GE(root.frames_rejected(), 3u);
  root.stop();
}

// ---------------------------------------------------------------------------
// Star accounting: a completed round costs 2R logical messages fleet-wide.
// ---------------------------------------------------------------------------

TEST(SocketTransport, MessagesSentMirrorsTheStarTree) {
  constexpr std::size_t kFleet = 2;
  const auto base = root_options(kFleet);
  coord::SocketTransport root(1, 1, base);
  root.attach(
      0, [] { return std::vector<double>{1.0}; },
      [](std::uint64_t, const std::vector<double>&) {});
  root.start();
  auto leaf = std::make_unique<coord::SocketTransport>(
      1, 1, leaf_options(base, root.listen_port(), 1));
  std::uint64_t leaf_delivered = 0;
  leaf->attach(
      0, [] { return std::vector<double>{2.0}; },
      [&](std::uint64_t, const std::vector<double>&) { ++leaf_delivered; });
  leaf->start();

  std::int64_t now = 0;
  ASSERT_TRUE(pump_until({&root, leaf.get()}, &now, 500, [&] {
    return root.rounds_completed() >= 3 && leaf_delivered >= 3;
  }));
  root.stop();
  leaf->stop();

  // Every completed round: R reports up + R broadcasts down. Session and
  // lease traffic is control overhead and must not be counted. The root may
  // have opened (sampled for) one extra round that never completed before
  // stop(), so allow exactly one sample's worth of slack per process.
  const std::uint64_t rounds = root.rounds_completed();
  const std::uint64_t fleet_messages =
      root.messages_sent() + leaf->messages_sent();
  EXPECT_GE(fleet_messages, 2 * kFleet * rounds);
  EXPECT_LE(fleet_messages, 2 * kFleet * rounds + kFleet);
}

// ---------------------------------------------------------------------------
// The delivery-side audit: round tags must strictly increase.
// ---------------------------------------------------------------------------

TEST(SocketTransportAudit, RoundTagMonotonePassesAndFires) {
  // Honest histories pass.
  audit::audit_round_tag_monotone(false, 0, 1);
  audit::audit_round_tag_monotone(true, 1, 2);
  audit::audit_round_tag_monotone(true, 2, 7);  // gaps are fine (abandons)

  // A replayed or reordered aggregate fires with an actionable message.
  const std::string msg = violation_message(
      [] { audit::audit_round_tag_monotone(true, 5, 5); });
  EXPECT_NE(msg.find("round-tag-monotone"), std::string::npos) << msg;
  EXPECT_NE(msg.find("replayed or reordered"), std::string::npos) << msg;
  violation_message([] { audit::audit_round_tag_monotone(true, 5, 4); });
}

TEST(SocketTransportAudit, LeaseMonotonePassesAndFires) {
  // Honest histories: first adoption, a refresh, an election handover.
  audit::audit_lease_monotone(false, 0, 0, 1, 0);
  audit::audit_lease_monotone(true, 1, 0, 1, 0);
  audit::audit_lease_monotone(true, 1, 0, 2, 1);

  // A superseded root's lease slipping back through is a regression.
  const std::string regress = violation_message(
      [] { audit::audit_lease_monotone(true, 3, 1, 2, 0); });
  EXPECT_NE(regress.find("lease-monotone"), std::string::npos) << regress;
  // One incarnation naming two roots is split brain.
  const std::string split = violation_message(
      [] { audit::audit_lease_monotone(true, 2, 0, 2, 1); });
  EXPECT_NE(split.find("split brain"), std::string::npos) << split;
}

TEST(SocketTransportAudit, RootAcquirePassesAndFires) {
  // Bootstrap (no lease ever seen) and a post-expiry takeover both pass.
  audit::audit_root_acquire(false, 0, 0, 1, 0);
  audit::audit_root_acquire(true, 1'000'000, 900'000, 2, 1);

  // Acquiring while the observed lease is still live is split brain.
  const std::string live = violation_message(
      [] { audit::audit_root_acquire(true, 100, 900'000, 2, 1); });
  EXPECT_NE(live.find("single-root"), std::string::npos) << live;
  EXPECT_NE(live.find("split brain"), std::string::npos) << live;
  // Acquiring without out-fencing the old incarnation leaves zombies live.
  const std::string fence = violation_message(
      [] { audit::audit_root_acquire(true, 1'000'000, 900'000, 1, 1); });
  EXPECT_NE(fence.find("single-root"), std::string::npos) << fence;
}

TEST(SocketTransport, ReadmitResetsTheSnapshotRoundFence) {
  // readmit() — what the transport's stale handler now calls — must both
  // drop the member to the conservative regime and reset the round-
  // monotonicity fence, so the first aggregate from a *new* transport epoch
  // (a restarted process, a newly elected root with lower round numbers)
  // is adopted as the new fence base instead of tripping the replay audit.
  const test::FixedRateScheduler scheduler({100.0});
  coord::ControlPlaneConfig cp;
  cp.redirector_count = 2;
  coord::ControlPlane plane(&scheduler, cp);
  coord::ControlPlane::Member* member = plane.add_member();

  member->receive_global(10, {1.0});
  EXPECT_TRUE(member->global().valid);
  member->readmit();
  EXPECT_FALSE(member->global().valid);
  // Round 3 < 10: legal only because the fence was reset (under an audit
  // build this call would otherwise throw coord.snapshot-round-monotone).
  member->receive_global(3, {2.0});
  EXPECT_TRUE(member->global().valid);
  // invalidate_global() alone keeps the fence: staleness without a transport
  // epoch change still audits against the old sequence.
  member->invalidate_global();
  EXPECT_FALSE(member->global().valid);
  member->receive_global(4, {2.5});
  EXPECT_TRUE(member->global().valid);
}

TEST(SocketTransport, RejectsNonLoopbackPeers) {
  coord::SocketTransport::Options options;
  options.peers = {"10.0.0.1:7000", "10.0.0.2:7000"};
  const std::string msg = violation_message([&] {
    coord::SocketTransport transport(1, 1, options);
    transport.start();
  });
  EXPECT_NE(msg.find("loopback"), std::string::npos) << msg;
  EXPECT_NE(msg.find("allow_nonlocal"), std::string::npos) << msg;
}

TEST(SocketTransport, AllowNonlocalLiftsTheLoopbackRestriction) {
  coord::SocketTransport::Options options;
  options.peers = {"10.0.0.1:7000", "10.0.0.2:7000"};
  options.process_index = 1;
  options.member_offset = 1;
  options.allow_nonlocal = true;
  // Constructing validates every peer entry; with the flag set, non-local
  // numeric IPv4 peers are accepted. (Not started: 10.0.0.0/8 is not
  // routable from the test environment.)
  EXPECT_NO_THROW(coord::SocketTransport transport(1, 1, options));
}

}  // namespace
}  // namespace sharegrid
