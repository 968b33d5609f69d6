// Unit tests for the node layer: server machines, pools, client machines,
// and both redirector implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coord/control_plane.hpp"
#include "coord/window_driver.hpp"
#include "nodes/client.hpp"
#include "nodes/l4_redirector.hpp"
#include "nodes/l7_redirector.hpp"
#include "nodes/metrics.hpp"
#include "nodes/server.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"

namespace sharegrid::nodes {
namespace {

using test::FixedRateScheduler;

Request make_request(core::PrincipalId p, std::uint64_t id, SimTime created,
                     std::size_t client = 0) {
  Request r;
  r.id = id;
  r.principal = static_cast<std::uint32_t>(p);
  r.created = created;
  r.client = static_cast<std::uint32_t>(client);
  return r;
}

/// Records when each submitted request finished service.
struct Completions final : ServiceListener {
  explicit Completions(const sim::Simulator* s) : sim(s) {}
  void on_service_done(const Request& request, std::uint32_t tag) override {
    ids.push_back(request.id);
    tags.push_back(tag);
    times.push_back(sim->now());
  }
  const sim::Simulator* sim;
  std::vector<std::uint64_t> ids;
  std::vector<std::uint32_t> tags;
  std::vector<SimTime> times;
};

// --- Server ------------------------------------------------------------------

TEST(Server, ServesAtConfiguredCapacity) {
  sim::Simulator sim;
  Metrics metrics(1);
  Server server(&sim, &metrics, {0, 100.0, {1, 80}});

  Completions done(&sim);
  for (int i = 0; i < 50; ++i) {
    server.submit(make_request(0, static_cast<std::uint64_t>(i), 0), &done,
                  static_cast<std::uint32_t>(100 + i));
  }
  // 50 requests at 100/s take 0.5 s of busy time.
  sim.run_until(seconds(0.25));
  EXPECT_NEAR(static_cast<double>(done.ids.size()), 25.0, 1.0);
  sim.run_until(seconds(1.0));
  ASSERT_EQ(done.ids.size(), 50u);
  EXPECT_DOUBLE_EQ(server.units_served(), 50.0);
  // Completions come back in submit order, each with its submitter's tag.
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(done.ids[i], i);
    EXPECT_EQ(done.tags[i], 100 + i);
  }
}

TEST(Server, JobFifoKeepsOrderAcrossGrowthAndWrapAround) {
  sim::Simulator sim;
  Metrics metrics(1);
  Server server(&sim, &metrics, {0, 1000.0, {1, 80}});
  Completions done(&sim);
  // Interleave bursts and drains so the ring wraps and then doubles with a
  // nonzero head.
  std::uint64_t next = 0;
  for (int burst : {3, 2, 7, 1, 20, 5}) {
    for (int i = 0; i < burst; ++i)
      server.submit(make_request(0, next++, 0), &done);
    sim.run_until(sim.now() + 4 * kMillisecond);
  }
  sim.run_all();
  ASSERT_EQ(done.ids.size(), next);
  for (std::uint64_t i = 0; i < next; ++i) EXPECT_EQ(done.ids[i], i);
  EXPECT_TRUE(std::is_sorted(done.times.begin(), done.times.end()));
}

TEST(Server, WeightScalesServiceTime) {
  sim::Simulator sim;
  Metrics metrics(1);
  Server server(&sim, &metrics, {0, 100.0, {1, 80}});

  Request big = make_request(0, 1, 0);
  big.weight = 10.0;  // a 10x request takes 0.1 s at 100 units/s
  Completions done(&sim);
  server.submit(big, &done);
  sim.run_all();
  ASSERT_EQ(done.times.size(), 1u);
  EXPECT_EQ(done.times[0], seconds(0.1));
}

TEST(Server, BacklogReflectsQueuedWork) {
  sim::Simulator sim;
  Metrics metrics(1);
  Server server(&sim, &metrics, {0, 100.0, {1, 80}});
  EXPECT_DOUBLE_EQ(server.backlog_seconds(), 0.0);
  for (int i = 0; i < 10; ++i)
    server.submit(make_request(0, static_cast<std::uint64_t>(i), 0));
  EXPECT_NEAR(server.backlog_seconds(), 0.1, 1e-6);
}

TEST(Server, RecordsServedMetrics) {
  sim::Simulator sim;
  Metrics metrics(2);
  Server server(&sim, &metrics, {0, 100.0, {1, 80}});
  server.submit(make_request(1, 1, 0));
  sim.run_all();
  EXPECT_EQ(metrics.served(1).total_events(), 1u);
  EXPECT_EQ(metrics.served(0).total_events(), 0u);
}

TEST(ServerPool, PicksLeastBackloggedMachineOfOwner) {
  sim::Simulator sim;
  Metrics metrics(2);
  Server s1(&sim, &metrics, {0, 100.0, {1, 80}});
  Server s2(&sim, &metrics, {0, 100.0, {2, 80}});
  Server other(&sim, &metrics, {1, 100.0, {3, 80}});
  ServerPool pool;
  pool.add(&s1);
  pool.add(&s2);
  pool.add(&other);

  EXPECT_EQ(pool.pick(0), &s1);  // tie broken by declaration order
  s1.submit(make_request(0, 1, 0));
  EXPECT_EQ(pool.pick(0), &s2);  // s1 now has backlog
  EXPECT_EQ(pool.pick(1), &other);
  EXPECT_EQ(pool.pick(5), nullptr);
  EXPECT_DOUBLE_EQ(pool.capacity(0), 200.0);
  EXPECT_EQ(pool.find({2, 80}), &s2);
  EXPECT_EQ(pool.find({9, 9}), nullptr);
}

// --- ClientMachine -------------------------------------------------------------

/// Records everything a redirector would see.
class RecordingRedirector final : public RedirectorBase {
 public:
  void on_client_request(const Request& request, RequestSource* from) override {
    requests.push_back(request);
    froms.push_back(from);
  }
  std::vector<Request> requests;
  std::vector<RequestSource*> froms;
};

ClientMachine::Config client_config(double rate, std::size_t max_outstanding,
                                    bool exponential = false) {
  ClientMachine::Config c;
  c.principal = 0;
  c.index = 0;
  c.rate = rate;
  c.max_outstanding = max_outstanding;
  c.exponential_arrivals = exponential;
  c.net_delay = 100;
  return c;
}

TEST(ClientMachine, GeneratesAtConfiguredRate) {
  sim::Simulator sim;
  Metrics metrics(1);
  RecordingRedirector redirector;
  ClientMachine client(&sim, &metrics, &redirector, client_config(100.0, 1000),
                       Rng(1));
  client.set_active(true);
  sim.run_until(seconds(10.0));
  EXPECT_NEAR(static_cast<double>(redirector.requests.size()), 1000.0, 5.0);
}

TEST(ClientMachine, DeactivationStopsGeneration) {
  sim::Simulator sim;
  Metrics metrics(1);
  RecordingRedirector redirector;
  ClientMachine client(&sim, &metrics, &redirector, client_config(100.0, 1000),
                       Rng(2));
  client.set_active(true);
  sim.run_until(seconds(1.0));
  client.set_active(false);
  const auto count = redirector.requests.size();
  sim.run_until(seconds(5.0));
  EXPECT_LE(redirector.requests.size(), count + 1);  // at most one in flight
}

TEST(ClientMachine, OutstandingCapThrottlesGeneration) {
  sim::Simulator sim;
  Metrics metrics(1);
  RecordingRedirector redirector;  // never responds => slots never free
  ClientMachine client(&sim, &metrics, &redirector, client_config(100.0, 7),
                       Rng(3));
  client.set_active(true);
  sim.run_until(seconds(5.0));
  EXPECT_EQ(redirector.requests.size(), 7u);
  EXPECT_EQ(client.outstanding(), 7u);
}

TEST(ClientMachine, SelfRedirectRetriesSameRequest) {
  sim::Simulator sim;
  Metrics metrics(1);
  RecordingRedirector redirector;
  auto config = client_config(100.0, 10);
  config.retry_delay_sec = 0.5;
  ClientMachine client(&sim, &metrics, &redirector, config, Rng(4));
  client.set_active(true);
  sim.run_until(seconds(0.02));  // one request out
  ASSERT_GE(redirector.requests.size(), 1u);
  const Request first = redirector.requests[0];

  client.set_active(false);
  client.on_self_redirect(first);
  sim.run_until(seconds(2.0));
  // The retry arrives with the same id and original creation time.
  const Request& retried = redirector.requests.back();
  EXPECT_EQ(retried.id, first.id);
  EXPECT_EQ(retried.created, first.created);
  EXPECT_EQ(metrics.rejected(0).total_events(), 1u);
}

TEST(ClientMachine, ResponseFreesSlotAndRecordsLatency) {
  sim::Simulator sim;
  Metrics metrics(1);
  RecordingRedirector redirector;
  ClientMachine client(&sim, &metrics, &redirector, client_config(100.0, 5),
                       Rng(5));
  client.set_active(true);
  sim.run_until(seconds(0.05));
  ASSERT_GE(client.outstanding(), 1u);
  const std::size_t before = client.outstanding();

  Request done = redirector.requests[0];
  sim.run_until(seconds(1.0) + 1);  // move time forward for latency
  client.on_response(done);
  EXPECT_EQ(client.outstanding(), before - 1);
  EXPECT_EQ(metrics.latency(0).count(), 1u);
  EXPECT_GT(metrics.latency(0).mean(), 0.9);
}

// --- L7Redirector ---------------------------------------------------------------

struct L7Fixture {
  sim::Simulator sim;
  Metrics metrics{2};
  FixedRateScheduler scheduler;
  std::unique_ptr<coord::ControlPlane> plane;
  std::unique_ptr<coord::SimWindowDriver> driver;
  std::unique_ptr<Server> server0;
  std::unique_ptr<Server> server1;
  ServerPool pool;
  std::unique_ptr<L7Redirector> redirector;
  std::unique_ptr<ClientMachine> client;

  explicit L7Fixture(std::vector<double> rates,
                     L7Redirector::Mode mode = L7Redirector::Mode::kCreditBased)
      : scheduler(std::move(rates)) {
    plane = std::make_unique<coord::ControlPlane>(&scheduler,
                                                  coord::ControlPlaneConfig{});
    server0 = std::make_unique<Server>(&sim, &metrics,
                                       Server::Config{0, 1000.0, {1, 80}});
    server1 = std::make_unique<Server>(&sim, &metrics,
                                       Server::Config{1, 1000.0, {2, 80}});
    pool.add(server0.get());
    pool.add(server1.get());
    L7Redirector::Config rc;
    rc.name = "r";
    rc.mode = mode;
    redirector = std::make_unique<L7Redirector>(&sim, &metrics, &pool,
                                                plane->add_member(), rc);
    ClientMachine::Config cc;
    cc.principal = 0;
    cc.rate = 100.0;
    cc.max_outstanding = 1000;
    cc.exponential_arrivals = false;
    client = std::make_unique<ClientMachine>(&sim, &metrics, redirector.get(),
                                             cc, Rng(6));
    driver = std::make_unique<coord::SimWindowDriver>(&sim, plane.get());
    driver->start(100 * kMillisecond);
  }
};

TEST(L7Redirector, AdmitsWithinQuotaServesViaServer) {
  L7Fixture f({200.0, 0.0});  // plenty of quota for principal 0
  f.client->set_active(true);
  f.sim.run_until(seconds(5.0));
  // ~500 requests generated, all should be admitted and served — except the
  // handful arriving before the first scheduling window opens any quota.
  EXPECT_NEAR(static_cast<double>(f.metrics.served(0).total_events()), 490.0,
              20.0);
  EXPECT_LE(f.redirector->self_redirects(), 15u);
}

TEST(L7Redirector, OverQuotaRequestsSelfRedirect) {
  L7Fixture f({40.0, 0.0});  // quota 40/s against 100/s offered
  f.client->set_active(true);
  f.sim.run_until(seconds(10.0));
  const double served = f.metrics.served(0).average_rate(seconds(2),
                                                          seconds(10));
  EXPECT_NEAR(served, 40.0, 4.0);
  EXPECT_GT(f.redirector->self_redirects(), 100u);
  EXPECT_GT(f.metrics.rejected(0).total_events(), 100u);
}

TEST(L7Redirector, ExplicitQueueModeHoldsAndReleasesPerWindow) {
  L7Fixture f({40.0, 0.0}, L7Redirector::Mode::kExplicitQueue);
  f.client->set_active(true);
  f.sim.run_until(seconds(10.0));
  // Same long-run service rate, but no self-redirects: the queue is real.
  const double served = f.metrics.served(0).average_rate(seconds(2),
                                                          seconds(10));
  EXPECT_NEAR(served, 40.0, 4.0);
  EXPECT_EQ(f.redirector->self_redirects(), 0u);
}

TEST(L7Redirector, LocalDemandTracksArrivals) {
  L7Fixture f({200.0, 0.0});
  f.client->set_active(true);
  f.sim.run_until(seconds(5.0));
  const std::vector<double> demand = f.redirector->local_demand();
  EXPECT_NEAR(demand[0], 100.0, 10.0);
  EXPECT_NEAR(demand[1], 0.0, 1e-9);
}

// --- L4Redirector ---------------------------------------------------------------

struct L4Fixture {
  sim::Simulator sim;
  Metrics metrics{2};
  FixedRateScheduler scheduler;
  std::unique_ptr<coord::ControlPlane> plane;
  std::unique_ptr<coord::SimWindowDriver> driver;
  std::unique_ptr<Server> server0;
  std::unique_ptr<Server> server1;
  ServerPool pool;
  std::unique_ptr<L4Redirector> redirector;
  std::unique_ptr<ClientMachine> client;

  explicit L4Fixture(std::vector<double> rates, std::size_t max_queue = 1 << 16)
      : scheduler(std::move(rates)) {
    plane = std::make_unique<coord::ControlPlane>(&scheduler,
                                                  coord::ControlPlaneConfig{});
    server0 = std::make_unique<Server>(&sim, &metrics,
                                       Server::Config{0, 1000.0, {1, 80}});
    server1 = std::make_unique<Server>(&sim, &metrics,
                                       Server::Config{0, 1000.0, {2, 80}});
    pool.add(server0.get());
    pool.add(server1.get());
    L4Redirector::Config rc;
    rc.name = "r";
    rc.max_queue = max_queue;
    redirector = std::make_unique<L4Redirector>(&sim, &metrics, &pool,
                                                plane->add_member(), rc);
    ClientMachine::Config cc;
    cc.principal = 0;
    cc.rate = 100.0;
    cc.max_outstanding = 1000;
    cc.exponential_arrivals = false;
    client = std::make_unique<ClientMachine>(&sim, &metrics, redirector.get(),
                                             cc, Rng(7));
    driver = std::make_unique<coord::SimWindowDriver>(&sim, plane.get());
    driver->start(100 * kMillisecond);
  }
};

TEST(L4Redirector, ForwardsAdmittedSynsEndToEnd) {
  L4Fixture f({200.0, 0.0});
  f.client->set_active(true);
  f.sim.run_until(seconds(5.0));
  EXPECT_NEAR(static_cast<double>(f.metrics.served(0).total_events()), 490.0,
              20.0);
  // Responses flowed back through the NAT path to the client.
  EXPECT_NEAR(static_cast<double>(f.metrics.latency(0).count()), 490.0, 20.0);
  EXPECT_EQ(f.redirector->queue_length(0), 0u);
}

TEST(L4Redirector, QueuesOverQuotaAndReinjectsNextWindows) {
  L4Fixture f({40.0, 0.0});
  f.client->set_active(true);
  f.sim.run_until(seconds(10.0));
  const double served =
      f.metrics.served(0).average_rate(seconds(2), seconds(10));
  EXPECT_NEAR(served, 40.0, 4.0);
  EXPECT_GT(f.redirector->queue_length(0), 50u);  // backlog is real
  EXPECT_EQ(f.redirector->drops(), 0u);
}

TEST(L4Redirector, BoundedQueueDropsWhenFull) {
  L4Fixture f({1.0, 0.0}, /*max_queue=*/10);
  f.client->set_active(true);
  f.sim.run_until(seconds(5.0));
  EXPECT_EQ(f.redirector->queue_length(0), 10u);
  EXPECT_GT(f.redirector->drops(), 0u);
  EXPECT_GT(f.metrics.rejected(0).total_events(), 0u);
}

TEST(L4Redirector, ConnectionsDrainAfterService) {
  L4Fixture f({200.0, 0.0});
  f.client->set_active(true);
  f.sim.run_until(seconds(2.0));
  f.client->set_active(false);
  f.sim.run_until(seconds(4.0));
  // All connections released once replies went back.
  EXPECT_EQ(f.redirector->connections().active_connections(), 0u);
}

TEST(L4Redirector, VipMapsPrincipals) {
  EXPECT_EQ(L4Redirector::vip(0).host, 0x0A000000u);
  EXPECT_EQ(L4Redirector::vip(3).host, 0x0A000003u);
  EXPECT_EQ(L4Redirector::vip(0).port, 80);
}

}  // namespace
}  // namespace sharegrid::nodes
