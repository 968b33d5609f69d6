// Regression tests for bugs found by the property suites and scaling
// sweeps. Each test pins the exact failure mode so it cannot quietly
// return.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "core/flow.hpp"
#include "experiments/scenario.hpp"
#include "lp/problem.hpp"
#include "lp/solve_context.hpp"
#include "sched/response_time_scheduler.hpp"
#include "sched/window_scheduler.hpp"
#include "util/metrics_registry.hpp"
#include "util/names.hpp"
#include "util/rng.hpp"

namespace sharegrid {
namespace {

// Bug 1: the conservative no-snapshot mode used a raw 1e9 demand; theta-row
// coefficients of that size times the solver tolerance left request-sized
// noise in LP solutions, and the window scheduler then "admitted" requests
// to principals with zero capacity and no servers (ServerPool::pick
// returned null => crash). Fixed by clamping demands inside the scheduler
// and raising the quota-noise threshold.
TEST(Regression, ConservativeModeNeverRoutesToZeroCapacityOwners) {
  core::AgreementGraph g;
  g.add_principal("P0", 0.0);     // pure consumer: no servers
  g.add_principal("P1", 234.89);  // the only resource owner
  const sched::ResponseTimeScheduler scheduler(
      g, core::compute_access_levels(g));

  sched::WindowScheduler ws(&scheduler, 100 * kMillisecond,
                            /*redirector_count=*/2);
  const sched::GlobalDemand none;  // no snapshot: conservative mode
  for (int window = 0; window < 50; ++window) {
    ws.begin_window({400.0, 400.0}, none);
    for (core::PrincipalId p = 0; p < 2; ++p) {
      while (const auto owner = ws.try_admit(p)) {
        // Whatever is admitted must be backed by real capacity.
        EXPECT_GT(g.capacity(*owner), 0.0);
      }
    }
  }
}

// Bug 2: the per-redirector share of a principal's global queue used
// max(global, local) as the denominator, which biases the slice sum below
// one whenever any node's local estimate runs ahead of the snapshot — a
// principal whose clients span redirectors was silently under-served
// (~455 of its 480 req/s entitlement) with the gap leaking to its peer.
// Bug 3: requests parked in a server's FIFO by transient over-admission
// were invisible to demand estimates; the closed loop then locked in at
// whatever split the transient left. Both fixed in WindowScheduler /
// L4Redirector demand accounting; this end-to-end check pins the result.
TEST(Regression, SplitClientsStillReceiveFullMandatoryShares) {
  core::AgreementGraph g;
  g.add_principal("A", 0.0);
  g.add_principal("B", 0.0);
  g.set_agreement(1, 0, 0.5, 0.5);

  experiments::ScenarioConfig c;
  c.graph = g;
  c.layer = experiments::Layer::kL4;
  c.redirector_count = 2;  // A's and B's clients both span the fleet
  c.servers = {{"A", 320.0}, {"B", 320.0}};
  for (std::size_t k = 0; k < 4; ++k)
    c.clients.push_back({util::numbered("A", k), "A",
                         k % 2, 200.0,
                         {{0.0, 40.0}}});
  for (std::size_t k = 0; k < 2; ++k)
    c.clients.push_back({util::numbered("B", k), "B",
                         k % 2, 200.0,
                         {{0.0, 40.0}}});
  c.phases = {{"steady", 20.0, 38.0}};
  c.duration_sec = 40.0;

  const auto result = experiments::run_scenario(c);
  // Pre-fix this settled around A=455/B=185; the contract says 480/160.
  EXPECT_NEAR(result.phase_served(0, 0), 480.0, 12.0);
  EXPECT_NEAR(result.phase_served(0, 1), 160.0, 12.0);
}

// Bug 4 (found while bringing up Figure 6): rejected requests all retried
// after exactly retry_delay, re-synchronizing into bursts that alternately
// overflowed and starved the per-window quota; served rates sagged well
// below the plan. Fixed with retry jitter; this checks the served rate
// stays near the planned allocation under sustained rejection.
TEST(Regression, RetryStormsDoNotStarveQuota) {
  core::AgreementGraph g;
  g.add_principal("S", 0.0);
  g.add_principal("A", 0.0);
  g.set_agreement(0, 1, 1.0, 1.0);

  experiments::ScenarioConfig c;
  c.graph = g;
  c.layer = experiments::Layer::kL7;
  c.servers = {{"S", 100.0}};  // far below offered load
  c.clients = {{"C1", "A", 0, 135.0, {{0.0, 30.0}}},
               {"C2", "A", 0, 135.0, {{0.0, 30.0}}}};
  c.phases = {{"steady", 10.0, 28.0}};
  c.duration_sec = 30.0;

  const auto result = experiments::run_scenario(c);
  // The server's 100 req/s must be consumed nearly fully despite ~170
  // req/s of perpetual retries.
  EXPECT_GE(result.phase_served(0, 1), 92.0);
}

// Bug 5 (found by the SHAREGRID_AUDIT build of the integration suite): the
// simplex ratio test accepted "ties" within an absolute tolerance window and
// let the accepted ratio ratchet upward across rows. Pivoting on a row whose
// ratio exceeds the true minimum drives the minimum row's rhs negative by
// (difference * pivot-column entry) — with scheduler-sized coefficients that
// is request-sized infeasibility, and the returned "optimal" point overshot
// the binding constraint. Fixed by making the minimum-ratio comparison exact
// (degenerate ties that matter for Bland's rule are exactly 0).
TEST(Regression, RatioTestTieWindowDoesNotOvershootBindingConstraint) {
  // Two near-tied rows, large coefficients, the larger-ratio row first. The
  // old tie window (|delta ratio| < 1e-9 * 1e6-scale) picked row 0 by basis
  // order and left rhs[1] at -0.05; the reported x0 then violated row 1.
  lp::Problem p(1, lp::Sense::kMaximize);
  p.set_objective(0, 1.0);
  p.add_constraint({{0, 1e6}}, lp::Relation::kLessEq, 1000000.0005);
  p.add_constraint({{0, 1e6}}, lp::Relation::kLessEq, 1000000.0);
  const lp::Solution s = lp::solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_LE(s.values[0], 1.0 + 1e-12);
  EXPECT_NO_THROW(audit::audit_lp_solution(p, s, 1e-10));
}

// Bug 6 (found by the SHAREGRID_AUDIT build of the robustness suite): after
// phase 1, an artificial variable that cannot be pivoted out stays basic in
// a redundant row — but the row kept sub-threshold (< 1e-7) residue in its
// structural columns. Phase-2 pivots multiplied that residue by
// saturated-demand-scale rhs values and leaked ~1e6 into the basic
// artificial, so solve() returned kOptimal for a point violating an original
// constraint by six orders of magnitude beyond tolerance. Fixed by zeroing
// the residue of rows whose artificial stays basic. The pinned check: every
// kOptimal result of the degenerate-coefficient sweep must satisfy the
// original problem (audit_lp_solution throws if not).
TEST(Regression, DegenerateCoefficientOptimaSatisfyOriginalProblem) {
  Rng rng(77);  // same seed as Robustness.SimplexSurvivesDegenerateCoefficients
  for (int trial = 0; trial < 50; ++trial) {
    lp::Problem p(3, lp::Sense::kMaximize);
    for (std::size_t j = 0; j < 3; ++j) {
      p.set_objective(j, rng.uniform(-1.0, 1.0));
      p.set_bounds(j, 0.0, rng.chance(0.5) ? lp::kInfinity : 1e9);
    }
    for (int c = 0; c < 4; ++c) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t j = 0; j < 3; ++j) {
        const double magnitude =
            rng.chance(0.3) ? 0.0
                            : (rng.chance(0.5) ? 1e-8 : rng.uniform(0.0, 1e6));
        terms.emplace_back(j, magnitude);
      }
      p.add_constraint(std::move(terms),
                       rng.chance(0.5) ? lp::Relation::kLessEq
                                       : lp::Relation::kGreaterEq,
                       rng.uniform(0.0, 1e6));
    }
    const lp::Solution s = lp::solve(p);
    if (!s.optimal()) continue;
    EXPECT_NO_THROW(audit::audit_lp_solution(p, s, 1e-5)) << "trial " << trial;
  }
}

// Bug 7 (found by the plane_socket benchmark workload, seeds 102 and 106
// with --switch-windows 40): dual recovery on a warm basis chose its pivot
// from the row read by BTRAN, but the entering column read by FTRAN had an
// exact zero in that row; filing it as an eta tripped the EtaFile::push
// invariant and aborted the plan. Dual recovery now gives up on such a
// pivot and the solve goes cold. The fixture holds the shortest plan()
// sequence from that run which still failed: fifteen 64-principal demand
// vectors in hexfloat, over the benchmark's provider graph.
TEST(Regression, DualRecoveryZeroPivotFallsBackToColdSolve) {
  // Provider S plus 63 customers with seeded [lb, ub] agreements, drawn
  // from a splitmix64 stream exactly as the benchmark draws them.
  std::uint64_t state = 42;
  const auto uniform = [&state](double lo, double hi) {
    std::uint64_t x = (state += 0x9e3779b97f4a7c15ULL) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return lo + (hi - lo) * static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  core::AgreementGraph g;
  g.add_principal("S", 1000.0);
  double budget = 1.0;
  for (std::size_t i = 1; i < 64; ++i) {
    g.add_principal(util::numbered("P", i), 0.0);
    const double lb = uniform(0.0, budget * 0.5);
    g.set_agreement(0, i, lb, uniform(lb, 1.0));
    budget -= lb;
  }

  std::ifstream in(SHAREGRID_TEST_DATA_DIR "/lp_zero_pivot_plans.txt");
  ASSERT_TRUE(in.good());
  std::vector<std::vector<double>> demands;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::vector<double> demand;
    for (std::string field; fields >> field;)
      demand.push_back(std::strtod(field.c_str(), nullptr));
    ASSERT_EQ(demand.size(), g.size());
    demands.push_back(std::move(demand));
  }
  ASSERT_EQ(demands.size(), 15u);

  const core::AccessLevels levels = core::compute_access_levels(g);
  const sched::ResponseTimeScheduler warm(g, levels);
  sched::Plan last;
  for (const std::vector<double>& demand : demands)
    ASSERT_NO_THROW(last = warm.plan(demand));
  // The fallback is a real solve, not the previous window's allocation, and
  // it plans what a scheduler with no warm state plans.
  EXPECT_FALSE(last.lp_fallback);
  const sched::Plan fresh =
      sched::ResponseTimeScheduler(g, levels).plan(demands.back());
  EXPECT_NEAR(last.theta, fresh.theta, 1e-9);
  for (core::PrincipalId p = 0; p < g.size(); ++p)
    EXPECT_NEAR(last.admitted(p), fresh.admitted(p), 1e-6) << "principal " << p;
}

// Pin: the integer output of both scenario runners (admissions, rejections,
// control messages, per-second served/offered counts, trace rows), the
// number of events dispatched, and the exact bits of every phase's served
// and offered rate. Any change in per-domain event creation order
// (DESIGN.md D4) or in RNG stream splitting shows up here as a drift, even
// where the figure benches' shape bands would still pass; the event count
// and the rate bits catch a reordering that leaves the integer counts alone.
struct RunnerPin {
  std::uint64_t events = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_or_queued = 0;
  std::uint64_t messages = 0;
  std::vector<std::vector<std::uint64_t>> served;   // [principal][bin]
  std::vector<std::vector<std::uint64_t>> offered;  // [principal][bin]
  std::vector<std::vector<std::uint64_t>> served_bits;   // [phase][principal]
  std::vector<std::vector<std::uint64_t>> offered_bits;  // [phase][principal]
  std::size_t trace_rows = 0;
  std::vector<std::string> trace_names;  // in order of first appearance
};

std::vector<std::uint64_t> bits_of(const std::vector<double>& rates) {
  std::vector<std::uint64_t> bits;
  for (const double rate : rates)
    bits.push_back(std::bit_cast<std::uint64_t>(rate));
  return bits;
}

/// Runs @p c and pins its output. run_scenario resets the process-wide
/// metrics registry up front, so afterwards its `sim.events` counter holds
/// the events this run dispatched.
RunnerPin run_pinned(const experiments::ScenarioConfig& c) {
  const experiments::ScenarioResult r = experiments::run_scenario(c);
  const std::uint64_t events =
      util::global_metrics().counter("sim.events").value();
  RunnerPin pin{.events = events,
                .admitted = r.total_admitted,
                .rejected_or_queued = r.total_rejected_or_queued,
                .messages = r.coordination_messages,
                .served = {},
                .offered = {},
                .served_bits = {},
                .offered_bits = {},
                .trace_rows = r.window_trace.rows().size(),
                .trace_names = {}};
  for (std::size_t p = 0; p < r.principal_names.size(); ++p) {
    std::vector<std::uint64_t> served;
    std::vector<std::uint64_t> offered;
    for (std::size_t b = 0; b < r.metrics.offered(p).bin_count(); ++b) {
      served.push_back(r.metrics.served(p).events_in_bin(b));
      offered.push_back(r.metrics.offered(p).events_in_bin(b));
    }
    pin.served.push_back(std::move(served));
    pin.offered.push_back(std::move(offered));
  }
  for (const experiments::PhaseReport& phase : r.phase_reports) {
    pin.served_bits.push_back(bits_of(phase.served_rate));
    pin.offered_bits.push_back(bits_of(phase.offered_rate));
  }
  for (const auto& row : r.window_trace.rows())
    if (std::find(pin.trace_names.begin(), pin.trace_names.end(),
                  row.redirector) == pin.trace_names.end())
      pin.trace_names.push_back(row.redirector);
  return pin;
}

void expect_pin(const RunnerPin& got, const RunnerPin& want) {
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.rejected_or_queued, want.rejected_or_queued);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.served, want.served);
  EXPECT_EQ(got.offered, want.offered);
  EXPECT_EQ(got.served_bits, want.served_bits);
  EXPECT_EQ(got.offered_bits, want.offered_bits);
  EXPECT_EQ(got.trace_rows, want.trace_rows);
  EXPECT_EQ(got.trace_names, want.trace_names);
}

/// Two principals with symmetric agreements (0.3 mandatory, 1.0 optional
/// each way), one 200 req/s server each, every window traced.
experiments::ScenarioConfig pin_base() {
  experiments::ScenarioConfig c;
  c.graph.add_principal("A", 0.0);
  c.graph.add_principal("B", 0.0);
  c.graph.set_agreement(0, 1, 0.3, 1.0);
  c.graph.set_agreement(1, 0, 0.3, 1.0);
  c.servers = {{"A", 200.0}, {"B", 200.0}};
  c.phases = {{"all", 0.0, 6.0}};
  c.duration_sec = 6.0;
  c.trace_windows = true;
  c.seed = 2024;
  return c;
}

TEST(Regression, ClassicL7TreeRunOutputIsPinned) {
  experiments::ScenarioConfig c = pin_base();
  c.layer = experiments::Layer::kL7;
  c.redirector_count = 3;
  c.tree_fanout = 2;
  c.tree_link_delay = 30 * kMillisecond;
  c.clients = {{"a0", "A", 0, 260.0, {{0.0, 6.0}}},
               {"a1", "A", 1, 120.0, {{1.0, 5.0}}},
               {"b0", "B", 2, 220.0, {{0.5, 6.0}}}};
  c.capacity_events = {{2.5, 1, 120.0}};
  expect_pin(run_pinned(c),
             {.events = 31893,
              .admitted = 2081,
              .rejected_or_queued = 6005,
              .messages = 357,
              .served = {{246, 211, 212, 194, 194, 194},
                         {39, 183, 162, 126, 126, 126}},
              .offered = {{262, 352, 278, 222, 194, 109},
                          {109, 219, 182, 128, 126, 126}},
              .served_bits = {{0x406a100000000000, 0x405fc00000000000}},
              .offered_bits = {{0x406d855555555555, 0x40628aaaaaaaaaab}},
              .trace_rows = 180,
              .trace_names = {"l7-0", "l7-1", "l7-2"}});
}

TEST(Regression, ClassicL4RunOutputIsPinned) {
  experiments::ScenarioConfig c = pin_base();
  c.layer = experiments::Layer::kL4;
  c.redirector_count = 2;
  c.clients = {{"a0", "A", 0, 300.0, {{0.0, 6.0}}},
               {"b0", "B", 1, 150.0, {{1.0, 4.5}}},
               {"b1", "B", 0, 150.0, {{2.0, 6.0}}}};
  expect_pin(run_pinned(c),
             {.events = 12686,
              .admitted = 2311,
              .rejected_or_queued = 225,
              .messages = 240,
              .served = {{271, 252, 217, 181, 182, 197},
                         {0, 133, 180, 218, 218, 202}},
              .offered = {{286, 289, 292, 182, 182, 196},
                          {0, 154, 310, 308, 179, 158}},
              .served_bits = {{0x406b155555555555, 0x4063d00000000000}},
              .offered_bits = {{0x406dbaaaaaaaaaab, 0x40671aaaaaaaaaab}},
              .trace_rows = 120,
              .trace_names = {"l4-0", "l4-1"}});
}

TEST(Regression, ClusteredRunOutputIsPinned) {
  experiments::ScenarioConfig c = pin_base();
  c.layer = experiments::Layer::kL4;
  c.clusters = 3;
  c.client_scale = 2;
  c.tree_link_delay = 40 * kMillisecond;
  c.clients = {{"a0", "A", 0, 120.0, {{0.0, 6.0}}},
               {"b0", "B", 0, 90.0, {{1.5, 5.0}}}};
  expect_pin(run_pinned(c),
             {.events = 31099,
              .admitted = 6131,
              .rejected_or_queued = 31,
              .messages = 360,
              .served = {{651, 749, 666, 629, 664, 814},
                         {0, 142, 513, 546, 529}},
              .offered = {{737, 737, 692, 729, 761, 721},
                          {0, 242, 527, 497, 520}},
              .served_bits = {{0x4085bc0000000000, 0x40729aaaaaaaaaab}},
              .offered_bits = {{0x4086cc0000000000, 0x40729aaaaaaaaaab}},
              .trace_rows = 180,
              .trace_names = {"l4-c0", "l4-c1", "l4-c2"}});
}

}  // namespace
}  // namespace sharegrid
