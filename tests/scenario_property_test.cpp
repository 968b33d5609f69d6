// Property suite over randomly generated end-to-end deployments: whatever
// the topology, agreements, and load, the enforcement invariants must hold.
#include <gtest/gtest.h>

#include <string>

#include "core/flow.hpp"
#include "experiments/scenario.hpp"
#include "util/names.hpp"
#include "util/rng.hpp"

namespace sharegrid::experiments {
namespace {

struct RandomScenario {
  ScenarioConfig config;
  core::AccessLevels levels;
  double total_capacity = 0.0;
};

/// Builds a random but well-formed deployment: 2-4 principals with a random
/// agreement DAG, 1-3 servers, 1-2 redirectors, 2-5 clients with random
/// rates, one measurement phase.
RandomScenario make_random_scenario(std::uint64_t seed) {
  Rng rng(seed);
  RandomScenario out;
  ScenarioConfig& c = out.config;

  const std::size_t n = 2 + rng.bounded(3);
  for (std::size_t i = 0; i < n; ++i)
    c.graph.add_principal(util::numbered("P", i), 0.0);
  for (core::PrincipalId i = 0; i < n; ++i) {
    double budget = 1.0;
    for (core::PrincipalId j = i + 1; j < n; ++j) {
      if (!rng.chance(0.6)) continue;
      const double lb = rng.uniform(0.0, budget * 0.6);
      const double ub = rng.uniform(lb, 1.0);
      if (ub <= 0.0) continue;
      c.graph.set_agreement(i, j, lb, ub);
      budget -= lb;
    }
  }

  c.layer = rng.chance(0.5) ? Layer::kL4 : Layer::kL7;
  c.redirector_count = 1 + rng.bounded(2);

  const std::size_t server_count = 1 + rng.bounded(3);
  for (std::size_t s = 0; s < server_count; ++s) {
    // Owners are always the first principals so capacity skews upstream.
    const auto owner = static_cast<core::PrincipalId>(rng.bounded(n));
    const double capacity = 80.0 + rng.uniform(0.0, 320.0);
    c.servers.push_back({util::numbered("P", owner), capacity});
    out.total_capacity += capacity;
  }

  const std::size_t client_count = 2 + rng.bounded(4);
  for (std::size_t k = 0; k < client_count; ++k) {
    ClientSpec spec;
    spec.name = util::numbered("C", k);
    spec.principal = util::numbered("P", rng.bounded(n));
    spec.redirector = rng.bounded(c.redirector_count);
    spec.rate = 40.0 + rng.uniform(0.0, 360.0);
    spec.active_sec = {{0.0, 40.0}};
    c.clients.push_back(std::move(spec));
  }

  c.phases = {{"steady", 10.0, 38.0}};
  c.duration_sec = 40.0;
  c.seed = seed * 977;

  // Recompute what the analysis will see (capacities from servers).
  core::AgreementGraph g = c.graph;
  for (core::PrincipalId p = 0; p < n; ++p) g.set_capacity(p, 0.0);
  for (const auto& spec : c.servers) {
    const auto owner = g.find(spec.owner);
    g.set_capacity(owner, g.capacity(owner) + spec.capacity);
  }
  out.levels = core::compute_access_levels(g);
  return out;
}

class ScenarioPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioPropertyTest, EnforcementInvariantsHold) {
  const RandomScenario scenario = make_random_scenario(GetParam());
  const ScenarioResult result = run_scenario(scenario.config);
  const std::size_t n = result.principal_names.size();

  // Per-principal offered demand during the phase.
  std::vector<double> offered(n, 0.0);
  std::vector<double> served(n, 0.0);
  double total_served = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    offered[p] = result.phase_reports[0].offered_rate[p];
    served[p] = result.phase_reports[0].served_rate[p];
    total_served += served[p];

    // I1: nothing is served that was not offered (plus binning slack).
    EXPECT_LE(served[p], offered[p] * 1.05 + 8.0)
        << result.principal_names[p];

    // I2: agreement ceiling — a principal is never served beyond
    // MC + OC (plus tolerance for startup transients in the average).
    const double ceiling = scenario.levels.mandatory_capacity[p] +
                           scenario.levels.optional_capacity[p];
    EXPECT_LE(served[p], ceiling * 1.05 + 8.0) << result.principal_names[p];
  }

  // I3: aggregate conservation — total service never exceeds physical
  // capacity.
  EXPECT_LE(total_served, scenario.total_capacity * 1.02 + 8.0);

  // I4: the server pool is never driven far beyond capacity (bounded
  // backlog; generous bound covers closed-loop bursts).
  EXPECT_LT(result.server_backlog_sec.max(), 2.0);

  // I5: mandatory floors — a principal whose offered load stays under its
  // guarantee is (nearly) fully served. Skip principals involved in
  // transients (offered close to the floor).
  for (std::size_t p = 0; p < n; ++p) {
    const double mc = scenario.levels.mandatory_capacity[p];
    if (offered[p] > 5.0 && offered[p] < 0.8 * mc) {
      EXPECT_GE(served[p], 0.85 * offered[p]) << result.principal_names[p];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace sharegrid::experiments
