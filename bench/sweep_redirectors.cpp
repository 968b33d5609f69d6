// Extension sweep E-R: scaling the redirector fleet.
//
// The paper's prototypes use two redirectors. This sweep spreads the same
// community workload over 1..8 admission points (balanced binary combining
// tree beyond 4) and checks the two §3.2 claims at once: enforcement is
// redirector-count invariant (every node solves the same LP on the same
// aggregate), and coordination cost stays linear — 2(n-1) messages per
// round, not O(n^2).
#include <cstdlib>
#include <iostream>

#include "experiments/scenario.hpp"
#include "util/names.hpp"
#include "util/table.hpp"

using namespace sharegrid;
using namespace sharegrid::experiments;

namespace {

ScenarioConfig fleet_config(std::size_t redirectors) {
  core::AgreementGraph g;
  g.add_principal("A", 0.0);
  g.add_principal("B", 0.0);
  g.set_agreement(1, 0, 0.5, 0.5);

  ScenarioConfig c;
  c.graph = g;
  c.layer = Layer::kL4;
  c.redirector_count = redirectors;
  if (redirectors > 4) c.tree_fanout = 2;
  c.servers = {{"A", 320.0}, {"B", 320.0}};
  // 4 client machines for A, 2 for B, spread round-robin over the fleet.
  for (std::size_t k = 0; k < 4; ++k)
    c.clients.push_back({util::numbered("A", k), "A",
                         k % redirectors, 200.0,
                         {{0.0, 60.0}}});
  for (std::size_t k = 0; k < 2; ++k)
    c.clients.push_back({util::numbered("B", k), "B",
                         k % redirectors, 200.0,
                         {{0.0, 60.0}}});
  c.phases = {{"steady", 10.0, 58.0}};
  c.duration_sec = 60.0;
  return c;
}

}  // namespace

int main() {
  std::cout << "=== sweep: redirector fleet size (enforcement must be "
               "fleet-invariant; messages linear) ===\n\n";
  TextTable table({"redirectors", "A served (exp 480)", "B served (exp 160)",
                   "tree msgs/round", "2(n-1)"});
  bool ok = true;
  for (const std::size_t r : {1u, 2u, 4u, 8u}) {
    const ScenarioResult result = run_scenario(fleet_config(r));
    const double a = result.phase_served(0, 0);
    const double b = result.phase_served(0, 1);
    // Rounds = duration / window; tree has r+1 nodes.
    const double rounds = 60.0 / 0.1;
    const double msgs_per_round =
        static_cast<double>(result.coordination_messages) / rounds;
    table.add_row({std::to_string(r), TextTable::num(a), TextTable::num(b),
                   TextTable::num(msgs_per_round),
                   TextTable::num(2.0 * static_cast<double>(r))});
    if (std::abs(a - 480.0) > 48.0 || std::abs(b - 160.0) > 24.0) ok = false;
    if (std::abs(msgs_per_round - 2.0 * static_cast<double>(r)) > 0.5)
      ok = false;
  }
  table.print(std::cout);
  std::cout << "\n"
            << (ok ? "sweep: shares hold from 1 to 8 admission points and "
                     "coordination traffic grows linearly, as §3.2 argues.\n"
                   : "sweep: SHAPE MISMATCH\n");
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
