// Ablation A1: explicit per-window queuing vs credit-based implicit queuing
// in the Layer-7 redirector (§4.1 and DESIGN.md D3).
//
// The paper's first L7 implementation held requests in explicit queues and
// released them in a batch each window; measured server rates then failed to
// grow linearly with client activity because the batching bunches requests
// and closed-loop clients stall waiting for the bunched replies. The final
// credit-based design forwards in-quota requests immediately. This bench
// sweeps the client count and reproduces that divergence.
#include <cstdlib>
#include <iostream>

#include "experiments/scenario.hpp"
#include "util/names.hpp"
#include "util/table.hpp"

using namespace sharegrid;
using namespace sharegrid::experiments;

namespace {

ScenarioConfig sweep_config(nodes::L7Redirector::Mode mode,
                            std::size_t client_count) {
  core::AgreementGraph g;
  const auto s = g.add_principal("S", 0.0);
  const auto a = g.add_principal("A", 0.0);
  g.set_agreement(s, a, 1.0, 1.0);  // one org owns the whole service

  ScenarioConfig c;
  c.graph = g;
  c.layer = Layer::kL7;
  c.l7_mode = mode;
  c.redirector_count = 1;
  c.servers = {{"S", 320.0}};
  for (std::size_t i = 0; i < client_count; ++i)
    c.clients.push_back({util::numbered("C", i), "A", 0, 135.0,
                         {{0.0, 30.0}}});
  c.phases = {{"steady", 5.0, 29.0}};
  c.duration_sec = 30.0;
  // WebBench-like closed loop: a handful of worker threads per machine.
  // This is what turns batching into lost throughput.
  c.max_outstanding = 8;
  return c;
}

}  // namespace

int main() {
  std::cout << "=== ablation: explicit per-window queuing vs credit-based "
               "admission (the paper's section 4.1 anomaly) ===\n\n";

  TextTable table({"clients", "offered (req/s)", "credit served",
                   "explicit served", "explicit/credit"});
  std::vector<double> credit_rates;
  std::vector<double> explicit_rates;
  for (std::size_t clients = 1; clients <= 4; ++clients) {
    const ScenarioResult credit = run_scenario(
        sweep_config(nodes::L7Redirector::Mode::kCreditBased, clients));
    const ScenarioResult explicit_q = run_scenario(
        sweep_config(nodes::L7Redirector::Mode::kExplicitQueue, clients));
    const double c = credit.phase_served(0, 1);
    const double e = explicit_q.phase_served(0, 1);
    credit_rates.push_back(c);
    explicit_rates.push_back(e);
    table.add_row({std::to_string(clients),
                   TextTable::num(135.0 * static_cast<double>(clients), 0),
                   TextTable::num(c), TextTable::num(e),
                   TextTable::num(e / c, 2)});
  }
  table.print(std::cout);
  std::cout << '\n';

  // Shape checks: credit-based tracks offered load linearly until the server
  // saturates at 320 (the paper: "server processing rates linearly increase
  // with client activity until the server saturates"); explicit queuing
  // falls measurably short at every load level. With only 8 closed-loop
  // workers per machine, even credit mode pays a small slot tax on startup
  // rejections (~10-15% below nominal), so the linearity check uses a 15%
  // band — the explicit/credit *gap* is the ablation's signal.
  bool ok = true;
  if (std::abs(credit_rates[0] - 135.0) > 0.15 * 135.0 ||
      std::abs(credit_rates[1] - 270.0) > 0.15 * 270.0) {
    std::cout << "MISMATCH: credit mode should scale linearly (got "
              << credit_rates[0] << ", " << credit_rates[1] << ")\n";
    ok = false;
  }
  if (credit_rates[3] < 290.0) {
    std::cout << "MISMATCH: credit mode should saturate near 320\n";
    ok = false;
  }
  for (std::size_t i = 0; i < 2; ++i) {
    if (explicit_rates[i] > 0.9 * credit_rates[i]) {
      std::cout << "MISMATCH: explicit queuing should lose throughput to "
                   "request bunching at "
                << (i + 1) << " client(s)\n";
      ok = false;
    }
  }
  std::cout << (ok ? "ablation: credit-based admission restores the linear "
                     "throughput curve, matching the paper's fix.\n"
                   : "ablation: SHAPE MISMATCH\n");
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
