// Tests for the conservatively synchronized multi-domain engine
// (sim/sharded_simulator.hpp): epoch stepping, deterministic barrier
// delivery, shard-count invariance of the per-domain event streams, the
// unconditional lookahead-violation check, and event conservation.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sharded_simulator.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

namespace sharegrid {
namespace {

using sim::ShardedSimulator;

ShardedSimulator::Options options(SimDuration lookahead, std::size_t shards) {
  ShardedSimulator::Options o;
  o.lookahead = lookahead;
  o.shards = shards;
  return o;
}

TEST(ShardedSimulator, RunsLocalEventsPerDomain) {
  ShardedSimulator sharded(3, options(100, 2));
  std::vector<int> fired(3, 0);
  for (std::size_t d = 0; d < 3; ++d) {
    for (int i = 0; i < 5; ++i)
      sharded.domain(d).schedule_at(10 * (i + 1),
                                    [&fired, d] { ++fired[d]; });
  }
  sharded.run_until(1000);
  EXPECT_EQ(sharded.now(), 1000);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(fired[d], 5);
    EXPECT_EQ(sharded.domain(d).now(), 1000);
  }
  EXPECT_EQ(sharded.events_processed(), 15u);
  EXPECT_EQ(sharded.epochs(), 10u);
}

TEST(ShardedSimulator, SetupPostsDeliverAtFirstBarrier) {
  ShardedSimulator sharded(2, options(50, 1));
  std::vector<SimTime> seen;
  sharded.post(0, 1, 75, [&sharded, &seen] { seen.push_back(sharded.domain(1).now()); });
  sharded.post(1, 0, 0, [&sharded, &seen] { seen.push_back(sharded.domain(0).now()); });
  sharded.run_until(200);
  ASSERT_EQ(seen.size(), 2u);
  // Domain 0's message at t=0, domain 1's at t=75 (delivery order is by
  // source; execution order is by event time inside each domain).
  EXPECT_EQ(seen[0], 0);
  EXPECT_EQ(seen[1], 75);
  EXPECT_EQ(sharded.posts_sent(), 2u);
  EXPECT_EQ(sharded.posts_delivered(), 2u);
  sharded.audit_event_conservation();  // posts all accounted for
}

TEST(ShardedSimulator, LookaheadViolationThrowsInEveryBuild) {
  ShardedSimulator sharded(2, options(100, 1));
  // An event running in epoch [0, 100) posts for t = 50 < 100: the link
  // delay this post models is shorter than the declared lookahead, which
  // would let domain 1 miss a message for time it already executed.
  sharded.domain(0).schedule_at(10, [&sharded] {
    sharded.post(0, 1, 50, [] {});
  });
  EXPECT_THROW(sharded.run_until(1000), ContractViolation);
}

TEST(ShardedSimulator, PostAtEpochEndIsLegal) {
  ShardedSimulator sharded(2, options(100, 2));
  int delivered = 0;
  sharded.domain(0).schedule_at(10, [&sharded, &delivered] {
    sharded.post(0, 1, 100, [&delivered] { ++delivered; });
  });
  sharded.run_until(300);
  EXPECT_EQ(delivered, 1);
}

/// Ping-pong workload: every domain keeps local periodic work and relays a
/// token to the next domain with exactly-lookahead delay. The recorded
/// per-domain trace (time, tag) is the full observable event stream.
std::vector<std::vector<std::pair<SimTime, std::string>>> run_ring_workload(
    std::size_t domains, std::size_t shards) {
  constexpr SimDuration kLookahead = 100;
  ShardedSimulator sharded(domains, options(kLookahead, shards));
  std::vector<std::vector<std::pair<SimTime, std::string>>> traces(domains);

  // Local periodic work, two tasks per domain to create equal-time events.
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks;
  for (std::size_t d = 0; d < domains; ++d) {
    sim::Simulator& local = sharded.domain(d);
    for (int t = 0; t < 2; ++t) {
      tasks.push_back(std::make_unique<sim::PeriodicTask>(
          &local, 30, 60, [&local, &traces, d, t] {
            traces[d].push_back({local.now(), "local" + std::to_string(t)});
          }));
    }
  }

  // Token relays: domain d -> d+1 with the link delay == lookahead. The
  // relay function must live long enough; keep it on the heap via a shared
  // recursive lambda structure.
  struct Relay {
    ShardedSimulator* sharded;
    std::vector<std::vector<std::pair<SimTime, std::string>>>* traces;
    std::size_t domains;
    void hop(std::size_t d, int hops_left) {
      sim::Simulator& local = sharded->domain(d);
      (*traces)[d].push_back({local.now(), "token"});
      if (hops_left == 0) return;
      const std::size_t next = (d + 1) % domains;
      sharded->post(d, next, local.now() + 100,
                    [this, next, hops_left] { hop(next, hops_left - 1); });
    }
  };
  Relay relay{&sharded, &traces, domains};
  for (std::size_t d = 0; d < domains; ++d) {
    sharded.domain(d).schedule_at(5 + static_cast<SimTime>(d),
                                  [&relay, d] { relay.hop(d, 12); });
  }

  sharded.run_until(2000);
  sharded.audit_event_conservation();
  return traces;
}

TEST(ShardedSimulator, EventStreamsInvariantToShardCount) {
  const auto serial = run_ring_workload(5, 1);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto parallel = run_ring_workload(5, shards);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t d = 0; d < serial.size(); ++d) {
      EXPECT_EQ(parallel[d], serial[d])
          << "domain " << d << " diverged at shards=" << shards;
    }
  }
}

TEST(ShardedSimulator, RepeatedRunUntilContinues) {
  ShardedSimulator sharded(2, options(10, 2));
  int count = 0;
  sim::PeriodicTask tick(&sharded.domain(0), 5, 10,
                         [&count] { ++count; });
  sharded.run_until(100);
  const int after_first = count;
  sharded.run_until(200);
  EXPECT_GT(count, after_first);
  EXPECT_EQ(sharded.now(), 200);
  tick.cancel();
}

TEST(ShardedSimulator, LanesBeyondTheDomainCountStartNoThreads) {
  // Two domains keep at most two lanes busy, the caller and one worker, so
  // asking for 16 lanes must not start 15 pool threads. A first pool is
  // built before counting: under TSan the first thread a process creates
  // also starts the sanitizer's own background thread.
  const ShardedSimulator warm_up(2, options(10, 2));
  const std::size_t before = test::thread_count();
  ShardedSimulator sharded(2, options(10, 16));
  EXPECT_LE(test::thread_count(), before + 1);
  int count = 0;
  sharded.domain(0).schedule_at(5, [&count] { ++count; });
  sharded.domain(1).schedule_at(15, [&count] { ++count; });
  sharded.run_until(100);
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace sharegrid
