// Tests for the per-peer session layer (coord/session_manager.hpp): peer
// address validation, the HELLO handshake in both directions, zombie-
// incarnation rejection vs rejoin replacement, refusal-driven exponential
// backoff with a cap, the kDialRefused semantics the election layer builds
// on, and the single-threaded I/O contract: no thread of its own, a peer
// that stops reading is dropped rather than waited on, and a connection that
// never says HELLO is closed at the handshake deadline. Real loopback
// sockets, fake poll clocks — same contract as the transport tests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "coord/session_manager.hpp"
#include "coord/snapshot_wire.hpp"
#include "net/tcp.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

namespace sharegrid {
namespace {

using coord::SessionManager;

SessionManager::Options base_options(std::vector<std::string> peers,
                                     std::size_t self) {
  SessionManager::Options options;
  options.peers = std::move(peers);
  options.self_index = self;
  options.reconnect_base_usec = 1000;
  options.reconnect_max_usec = 4000;
  return options;
}

/// Polls both managers against a shared fake clock, collecting events per
/// manager, until @p done or the iteration budget runs out.
bool pump(std::vector<SessionManager*> managers,
          std::vector<std::vector<SessionManager::Event>*> sinks,
          std::int64_t* now, std::int64_t step,
          const std::function<bool()>& done) {
  for (int i = 0; i < 1000 && !done(); ++i) {
    for (std::size_t m = 0; m < managers.size(); ++m) {
      managers[m]->poll(*now);
      for (SessionManager::Event& e : managers[m]->take_events())
        sinks[m]->push_back(std::move(e));
    }
    *now += step;
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  return done();
}

TEST(SessionManager, ParsePeerValidatesAndSplits) {
  const auto local = SessionManager::parse_peer("127.0.0.1:7000", false);
  EXPECT_EQ(local.host, "127.0.0.1");
  EXPECT_EQ(local.port, 7000);
  // "localhost" is normalized, not resolved — no DNS in the fleet map.
  const auto named = SessionManager::parse_peer("localhost:80", false);
  EXPECT_EQ(named.host, "127.0.0.1");

  // Non-loopback peers are a deliberate opt-in.
  try {
    SessionManager::parse_peer("10.0.0.1:7000", false);
    FAIL() << "non-loopback peer accepted without allow_nonlocal";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("loopback"), std::string::npos) << msg;
    EXPECT_NE(msg.find("allow_nonlocal"), std::string::npos) << msg;
  }
  const auto remote = SessionManager::parse_peer("10.0.0.1:7000", true);
  EXPECT_EQ(remote.host, "10.0.0.1");
  EXPECT_EQ(remote.port, 7000);

  EXPECT_THROW(SessionManager::parse_peer("no-port-here", false),
               ContractViolation);
  EXPECT_THROW(SessionManager::parse_peer("127.0.0.1:65536", false),
               ContractViolation);
  EXPECT_THROW(SessionManager::parse_peer("127.0.0.1:x", false),
               ContractViolation);
}

TEST(SessionManager, NonNumericPeerHostFailsAtConstruction) {
  // allow_nonlocal lifts the loopback rule, not the no-DNS rule: a host
  // name would fail every dial and read as a dead peer to the election.
  auto options = base_options({"127.0.0.1:0", "ctrl-b.example:7000"}, 0);
  options.allow_nonlocal = true;
  EXPECT_THROW(SessionManager{options}, ContractViolation);
  EXPECT_THROW(SessionManager::parse_peer("ctrl-b.example:7000", true),
               ContractViolation);
  EXPECT_THROW(SessionManager::parse_peer("10.0.0:7000", true),
               ContractViolation);
}

TEST(SessionManager, HandshakeEstablishesBothSidesAndCarriesFrames) {
  // A listens on an ephemeral port; B (inbound-only entry, port 0) dials it.
  SessionManager a(base_options({"127.0.0.1:0", "127.0.0.1:0"}, 0));
  a.start();
  auto b_options =
      base_options({"127.0.0.1:" + std::to_string(a.listen_port()),
                    "127.0.0.1:0"},
                   1);
  b_options.incarnation = 7;
  b_options.hello_aux = (1ULL << 32) | 1ULL;
  SessionManager b(b_options);
  b.start();
  b.want(0, true);

  std::vector<SessionManager::Event> a_events, b_events;
  std::int64_t now = 0;
  ASSERT_TRUE(pump({&a, &b}, {&a_events, &b_events}, &now, 500, [&] {
    return a.established(1) && b.established(0);
  }));
  EXPECT_EQ(a.state(1), SessionManager::SessionState::kEstablished);
  EXPECT_EQ(b.state(0), SessionManager::SessionState::kEstablished);
  // The HELLO's identity claims surfaced on A's side of the session.
  EXPECT_EQ(a.peer_incarnation(1), 7u);
  EXPECT_EQ(a.peer_aux(1), (1ULL << 32) | 1ULL);
  ASSERT_FALSE(a_events.empty());
  EXPECT_EQ(a_events.front().kind, SessionManager::Event::Kind::kPeerUp);
  EXPECT_EQ(a_events.front().peer, 1u);
  EXPECT_EQ(a_events.front().incarnation, 7u);

  // Frames flow both ways once established, tagged with the peer index.
  coord::wire::Frame ping;
  ping.type = coord::wire::FrameType::kRoundStart;
  ping.round = 42;
  a.send(1, coord::wire::encode(ping));
  b_events.clear();
  ASSERT_TRUE(pump({&a, &b}, {&a_events, &b_events}, &now, 500, [&] {
    for (const SessionManager::Event& e : b_events)
      if (e.kind == SessionManager::Event::Kind::kFrame && e.peer == 0 &&
          e.frame.round == 42)
        return true;
    return false;
  }));

  a.stop();
  b.stop();
}

TEST(SessionManager, ZombieHelloIsRejectedAndRejoinReplaces) {
  std::vector<std::string> rejects;
  SessionManager::Options a_options =
      base_options({"127.0.0.1:0", "127.0.0.1:0"}, 0);
  // on_reject fires inside poll(), on this thread.
  a_options.on_reject = [&rejects](const char* why) {
    rejects.push_back(why);
  };
  SessionManager a(a_options);
  a.start();

  auto peer_options =
      base_options({"127.0.0.1:" + std::to_string(a.listen_port()),
                    "127.0.0.1:0"},
                   1);
  peer_options.incarnation = 2;
  auto b = std::make_unique<SessionManager>(peer_options);
  b->start();
  b->want(0, true);
  std::vector<SessionManager::Event> a_events, b_events;
  std::int64_t now = 0;
  ASSERT_TRUE(pump({&a, b.get()}, {&a_events, &b_events}, &now, 500,
                   [&] { return a.established(1); }));
  EXPECT_EQ(a.peer_incarnation(1), 2u);

  // A zombie instance of process 1 (incarnation 1 < 2) dials in: its HELLO
  // must be rejected and the live session left untouched.
  net::Socket zombie = net::Socket::connect_loopback(a.listen_port());
  coord::wire::Frame hello;
  hello.type = coord::wire::FrameType::kHello;
  hello.member = 1;
  hello.incarnation = 1;
  zombie.write_frame(coord::wire::encode(hello));
  ASSERT_TRUE(pump({&a, b.get()}, {&a_events, &b_events}, &now, 500, [&] {
    return !rejects.empty();
  }));
  EXPECT_EQ(rejects.back(), "stale incarnation hello");
  EXPECT_TRUE(a.established(1));
  EXPECT_EQ(a.peer_incarnation(1), 2u);

  // A *restarted* process 1 (incarnation 3) replaces the session instead:
  // kPeerUp with the new incarnation and a counted reconnect, no spurious
  // kPeerDown from the displaced connection.
  b->stop();
  b.reset();
  ASSERT_TRUE(pump({&a}, {&a_events}, &now, 500,
                   [&] { return !a.established(1); }));
  peer_options.incarnation = 3;
  SessionManager b2(peer_options);
  b2.start();
  b2.want(0, true);
  a_events.clear();
  ASSERT_TRUE(pump({&a, &b2}, {&a_events, &b_events}, &now, 500,
                   [&] { return a.established(1); }));
  EXPECT_EQ(a.peer_incarnation(1), 3u);
  EXPECT_GE(a.reconnects(), 1u);
  bool saw_up = false;
  for (const SessionManager::Event& e : a_events) {
    EXPECT_NE(e.kind, SessionManager::Event::Kind::kPeerDown)
        << "rejoin must not read as a fresh peer loss";
    if (e.kind == SessionManager::Event::Kind::kPeerUp) {
      EXPECT_EQ(e.incarnation, 3u);
      saw_up = true;
    }
  }
  EXPECT_TRUE(saw_up);

  a.stop();
  b2.stop();
}

TEST(SessionManager, RefusedDialsBackOffExponentiallyUpToTheCap) {
  // Grab a port with no listener behind it: every dial is refused.
  std::uint16_t dead_port = 0;
  {
    const net::Socket probe = net::Socket::listen_on_loopback(0);
    dead_port = probe.local_port();
  }
  SessionManager a(base_options(
      {"127.0.0.1:0", "127.0.0.1:" + std::to_string(dead_port)}, 0));
  a.start();
  a.want(1, true);

  // Fake clock, fine steps: refusal timestamps expose the dial cadence.
  std::vector<std::int64_t> refusal_times;
  std::int64_t now = 0;
  for (; now <= 20'000; now += 250) {
    a.poll(now);
    for (const SessionManager::Event& e : a.take_events()) {
      if (e.kind == SessionManager::Event::Kind::kDialRefused)
        refusal_times.push_back(now);
      ASSERT_NE(e.kind, SessionManager::Event::Kind::kPeerUp);
    }
  }
  // base 1000 doubling to cap 4000 over 20 ms: dials land near t = 0, 1000,
  // 3000, 7000, 11000, 15000, 19000 — seven refusals, +/- scheduling slop.
  ASSERT_GE(refusal_times.size(), 5u);
  EXPECT_LE(refusal_times.size(), 9u);
  for (std::size_t i = 1; i < refusal_times.size(); ++i) {
    const std::int64_t gap = refusal_times[i] - refusal_times[i - 1];
    EXPECT_GE(gap, 1000) << "dial " << i << " ignored the backoff";
    EXPECT_LE(gap, 4000 + 250) << "dial " << i << " exceeded the cap";
  }
  // The last gaps sit at the cap — backoff stopped doubling.
  const std::size_t n = refusal_times.size();
  EXPECT_GE(refusal_times[n - 1] - refusal_times[n - 2], 4000 - 250);
  EXPECT_EQ(a.state(1), SessionManager::SessionState::kConnecting);
  EXPECT_EQ(a.peers_ever_established(), 0u);

  // Unwanting the peer stops the dial loop.
  a.want(1, false);
  const std::size_t before = refusal_times.size();
  for (; now <= 40'000; now += 250) {
    a.poll(now);
    for (const SessionManager::Event& e : a.take_events())
      ASSERT_NE(e.kind, SessionManager::Event::Kind::kDialRefused);
  }
  EXPECT_EQ(refusal_times.size(), before);
  EXPECT_EQ(a.state(1), SessionManager::SessionState::kIdle);
  a.stop();
}

// The session layer does all of its I/O inside poll() on the caller's
// thread: a three-process mesh comes up, carries frames both ways on every
// pair and shuts down without the process ever gaining a thread.
TEST(SessionManager, StartsNoThread) {
  const std::size_t threads = test::thread_count();
  SessionManager a(
      base_options({"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}, 0));
  a.start();
  const std::string a_addr = "127.0.0.1:" + std::to_string(a.listen_port());
  SessionManager b(base_options({a_addr, "127.0.0.1:0", "127.0.0.1:0"}, 1));
  b.start();
  SessionManager c(base_options(
      {a_addr, "127.0.0.1:" + std::to_string(b.listen_port()), "127.0.0.1:0"},
      2));
  c.start();
  EXPECT_EQ(test::thread_count(), threads);

  b.want(0, true);
  c.want(0, true);
  c.want(1, true);
  std::vector<SessionManager*> managers = {&a, &b, &c};
  std::vector<std::vector<SessionManager::Event>> events(3);
  std::vector<std::vector<SessionManager::Event>*> sinks = {
      &events[0], &events[1], &events[2]};
  std::int64_t now = 0;
  ASSERT_TRUE(pump(managers, sinks, &now, 500, [&] {
    for (const SessionManager* m : managers)
      if (m->established_count() != 2) return false;
    return true;
  }));
  EXPECT_EQ(test::thread_count(), threads);

  // Every manager sends every peer a frame tagged 10 * sender + receiver.
  for (std::size_t from = 0; from < 3; ++from)
    for (std::size_t to = 0; to < 3; ++to) {
      if (from == to) continue;
      coord::wire::Frame frame;
      frame.round = 10 * from + to;
      managers[from]->send(to, coord::wire::encode(frame));
    }
  ASSERT_TRUE(pump(managers, sinks, &now, 500, [&] {
    for (std::size_t to = 0; to < 3; ++to) {
      std::size_t got = 0;
      for (const SessionManager::Event& e : events[to])
        if (e.kind == SessionManager::Event::Kind::kFrame &&
            e.frame.round == 10 * e.peer + to)
          ++got;
      if (got != 2) return false;
    }
    return true;
  }));
  EXPECT_EQ(test::thread_count(), threads);

  a.stop();
  b.stop();
  c.stop();
  EXPECT_EQ(test::thread_count(), threads);
}

// A peer that completes HELLO and then never reads (a paused process, a
// stuck consumer) costs only its own session: send() and poll() keep
// returning, and once the bytes it has not taken pass the cap it is
// reported down. Should a send ever block, the watchdog closes the peer's
// socket at its deadline, which unblocks the sender and fails the test
// instead of hanging it.
TEST(SessionManager, AStalledReaderIsDroppedNotWaitedOn) {
  SessionManager a(base_options({"127.0.0.1:0", "127.0.0.1:0"}, 0));
  a.start();
  net::Socket stalled = net::Socket::connect_loopback(a.listen_port());
  coord::wire::Frame hello;
  hello.type = coord::wire::FrameType::kHello;
  hello.member = 1;
  hello.incarnation = 1;
  stalled.write_frame(coord::wire::encode(hello));
  std::vector<SessionManager::Event> events;
  std::int64_t now = 0;
  ASSERT_TRUE(pump({&a}, {&events}, &now, 500,
                   [&] { return a.established(1); }));

  std::mutex mutex;
  std::condition_variable finished;
  bool done = false;
  std::atomic<bool> fired{false};
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!finished.wait_for(lock, std::chrono::seconds(5),
                           [&] { return done; })) {
      fired.store(true);
      stalled.close();  // the only touch of the socket after the HELLO
    }
  });

  // A demand report for 64 principals: 536 bytes on the wire.
  coord::wire::Frame report;
  report.type = coord::wire::FrameType::kReport;
  report.values.assign(64, 1.0);
  const std::string bytes = coord::wire::encode(report);
  ASSERT_EQ(bytes.size(), 536u);
  bool down = false;
  for (int i = 0; i < 100'000 && !down && !fired.load(); ++i) {
    a.send(1, bytes);
    a.poll(now);
    now += 100;
    for (const SessionManager::Event& e : a.take_events())
      if (e.kind == SessionManager::Event::Kind::kPeerDown && e.peer == 1)
        down = true;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  finished.notify_one();
  watchdog.join();

  EXPECT_FALSE(fired.load()) << "send() or poll() waited on the stalled peer";
  EXPECT_TRUE(down) << "the stalled peer was never reported down";
  EXPECT_FALSE(a.established(1));
  a.stop();
}

TEST(SessionManager, SilentInboundConnectionIsClosedAtTheHelloDeadline) {
  auto options = base_options({"127.0.0.1:0", "127.0.0.1:0"}, 0);
  options.hello_timeout_usec = 10000;
  int rejects = 0;
  options.on_reject = [&rejects](const char*) { ++rejects; };
  SessionManager a(options);
  a.start();
  std::vector<net::Socket> silent;
  for (int i = 0; i < 3; ++i) {
    silent.push_back(net::Socket::connect_loopback(a.listen_port()));
    silent.back().set_read_timeout_ms(100);
  }
  // Accepted at t=0; one microsecond short of the deadline they stay open.
  for (int i = 0; i < 3; ++i) a.poll(0);
  a.poll(options.hello_timeout_usec - 1);
  for (const net::Socket& s : silent)
    EXPECT_EQ(s.read_some().status, net::ReadStatus::kTimedOut);
  EXPECT_EQ(rejects, 0);

  a.poll(options.hello_timeout_usec);
  for (const net::Socket& s : silent) {
    const net::ReadResult read = s.read_some();
    EXPECT_EQ(read.status, net::ReadStatus::kClosed);
    EXPECT_TRUE(read.data.empty());
  }
  EXPECT_EQ(rejects, 3);
  // No peer was named, so nothing reads as a refusal.
  for (const SessionManager::Event& e : a.take_events())
    EXPECT_NE(e.kind, SessionManager::Event::Kind::kDialRefused);
  a.stop();
}

}  // namespace
}  // namespace sharegrid
