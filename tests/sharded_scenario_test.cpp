// End-to-end tests for the cluster-partitioned scenario runner
// (run_scenario with clusters > 0, experiments/scenario.cpp): shard-count
// invariance of the full
// merged result, the serial-as-oracle audit, scaling knobs, and the
// partitioning contract's precondition checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "experiments/scenario.hpp"
#include "util/assert.hpp"

namespace sharegrid::experiments {
namespace {

/// Two-principal community sharing a 4-cluster deployment: each cluster
/// hosts one server per principal plus two client machines, and the star
/// exchange runs on 50 ms links (= the engine lookahead).
ScenarioConfig clustered_config(std::size_t clusters, std::size_t shards) {
  ScenarioConfig c;
  c.graph.add_principal("A", 0.0);
  c.graph.add_principal("B", 0.0);
  c.graph.set_agreement(0, 1, 0.3, 1.0);
  c.graph.set_agreement(1, 0, 0.3, 1.0);
  c.layer = Layer::kL4;
  c.servers = {{"A", 200.0}, {"B", 200.0}};
  ClientSpec a;
  a.name = "load-a";
  a.principal = "A";
  a.rate = 300.0;
  a.active_sec = {{0.0, 10.0}};
  ClientSpec b = a;
  b.name = "load-b";
  b.principal = "B";
  b.rate = 120.0;
  b.active_sec = {{2.0, 8.0}};
  c.clients = {a, b};
  c.phases = {{"steady", 3.0, 8.0}};
  c.duration_sec = 10.0;
  c.tree_link_delay = 50 * kMillisecond;
  c.clusters = clusters;
  c.sim_shards = shards;
  c.seed = 1337;
  return c;
}

TEST(ClusteredScenario, ServesTrafficAcrossClusters) {
  const ScenarioResult result = run_scenario(clustered_config(4, 1));
  EXPECT_GT(result.total_admitted, 0u);
  EXPECT_GT(result.metrics.served(0).total_events(), 0u);
  EXPECT_GT(result.metrics.served(1).total_events(), 0u);
  EXPECT_GT(result.coordination_messages, 0u);
  ASSERT_EQ(result.phase_reports.size(), 1u);
  EXPECT_GT(result.phase_reports[0].served_rate[0], 0.0);
}

TEST(ClusteredScenario, BitwiseInvariantToShardCount) {
  const ScenarioResult serial = run_scenario(clustered_config(4, 1));
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const ScenarioResult parallel = run_scenario(clustered_config(4, shards));
    // The audit comparator IS the equality check: it throws on the first
    // diverging bin/stat with a diagnostic naming it.
    EXPECT_NO_THROW(audit::audit_shard_merge_match(parallel, serial))
        << "sharded run diverged from serial oracle at shards=" << shards;
    EXPECT_EQ(parallel.total_admitted, serial.total_admitted);
    EXPECT_EQ(parallel.coordination_messages, serial.coordination_messages);
    EXPECT_EQ(parallel.metrics.latency(0).mean(),
              serial.metrics.latency(0).mean());
    EXPECT_EQ(parallel.server_backlog_sec.mean(),
              serial.server_backlog_sec.mean());
  }
}

TEST(ClusteredScenario, MergeAuditDetectsDivergence) {
  const ScenarioResult serial = run_scenario(clustered_config(2, 1));
  ScenarioResult tampered = run_scenario(clustered_config(2, 1));
  tampered.total_admitted += 1;
  EXPECT_THROW(audit::audit_shard_merge_match(tampered, serial),
               ContractViolation);
  ScenarioResult skewed = run_scenario(clustered_config(2, 1));
  skewed.metrics.on_served(0, seconds(5.0));
  EXPECT_THROW(audit::audit_shard_merge_match(skewed, serial),
               ContractViolation);
}

TEST(ClusteredScenario, ClientScaleMultipliesOfferedLoad) {
  ScenarioConfig base = clustered_config(2, 2);
  base.duration_sec = 6.0;
  base.phases = {{"steady", 1.0, 5.0}};
  // Keep the system underloaded (3x the load still fits in capacity) so the
  // closed loop doesn't throttle generation and replication shows through.
  for (ClientSpec& spec : base.clients) spec.rate = 40.0;
  ScenarioConfig scaled = base;
  scaled.client_scale = 3;
  const ScenarioResult one = run_scenario(base);
  const ScenarioResult three = run_scenario(scaled);
  EXPECT_GT(three.metrics.offered(0).total_events(),
            2 * one.metrics.offered(0).total_events());
}

TEST(ClusteredScenario, RequiresTheParticipationContract) {
  ScenarioConfig no_delay = clustered_config(2, 1);
  no_delay.tree_link_delay = 0;
  EXPECT_THROW(run_scenario(no_delay), ContractViolation);

  ScenarioConfig l7 = clustered_config(2, 1);
  l7.layer = Layer::kL7;
  EXPECT_THROW(run_scenario(l7), ContractViolation);

  ScenarioConfig fleet = clustered_config(2, 1);
  fleet.redirector_count = 2;
  EXPECT_THROW(run_scenario(fleet), ContractViolation);

  ScenarioConfig rewire = clustered_config(2, 1);
  rewire.capacity_events = {{5.0, 0, 100.0}};
  EXPECT_THROW(run_scenario(rewire), ContractViolation);
}

}  // namespace
}  // namespace sharegrid::experiments
