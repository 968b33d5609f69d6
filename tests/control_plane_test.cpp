// Tests for the unified control plane (DESIGN.md D10): the DES and
// wall-clock drivers must execute the same window loop, the conservative
// no-snapshot startup must pin every member to a 1/R slice on both drivers,
// the demand-spike fast path must respect its per-window budget, and the
// transport seam's three implementations must honour the exchange contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "coord/control_plane.hpp"
#include "coord/combining_tree.hpp"
#include "coord/round_protocol.hpp"
#include "coord/socket_transport.hpp"
#include "coord/window_driver.hpp"
#include "live/wall_clock_admission.hpp"
#include "sched/window_scheduler.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace sharegrid {
namespace {

constexpr SimDuration kWindow = 100 * kMillisecond;
constexpr double kWindowSec = 0.1;

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

/// Everything a window boundary decides, captured bitwise for the
/// driver-equivalence comparison.
struct WindowRecord {
  std::vector<double> demand;     // last_local_demand at begin_window
  std::vector<double> quota;      // remaining_quota per principal
  std::vector<double> plan_diag;  // plan rate diagonal
  bool global_valid = false;

  bool operator==(const WindowRecord& o) const {
    return demand == o.demand && quota == o.quota &&
           plan_diag == o.plan_diag && global_valid == o.global_valid;
  }
};

WindowRecord snapshot_member(const coord::ControlPlane::Member& m) {
  WindowRecord rec;
  rec.demand = m.last_local_demand();
  for (std::size_t i = 0; i < m.size(); ++i) {
    rec.quota.push_back(m.window_scheduler().remaining_quota(i));
    rec.plan_diag.push_back(m.window_scheduler().last_plan().rate(i, i));
  }
  rec.global_valid = m.global().valid;
  return rec;
}

void bind_recorder(coord::ControlPlane::Member* member,
                   std::vector<WindowRecord>* records) {
  coord::ControlPlane::MemberHooks hooks;
  hooks.on_window_begun = [member, records](SimTime) {
    records->push_back(snapshot_member(*member));
  };
  member->bind(std::move(hooks));
}

// ---------------------------------------------------------------------------
// The tentpole claim: the simulator and the wall clock are two thin drivers
// of one implementation. Feed both planes the identical offered load and the
// per-window demand estimates, plans and quotas must match *bitwise*.
// ---------------------------------------------------------------------------

TEST(ControlPlane, SimAndWallClockDriversRunTheSamePath) {
  constexpr int kWindows = 6;
  const test::FixedRateScheduler scheduler({100.0, 50.0});

  coord::ControlPlaneConfig config;
  config.window = kWindow;
  config.redirector_count = 2;

  // DES side: member window tasks are created *before* the tree transport,
  // so at each shared timestamp the windows advance first and the tree
  // samples second — the same boundary order the wall-clock driver uses.
  sim::Simulator sim;
  coord::ControlPlane sim_plane(&scheduler, config);
  std::vector<coord::ControlPlane::Member*> sim_members = {
      sim_plane.add_member(), sim_plane.add_member()};
  std::vector<std::vector<WindowRecord>> sim_records(2);
  for (std::size_t m = 0; m < 2; ++m)
    bind_recorder(sim_members[m], &sim_records[m]);
  coord::SimWindowDriver sim_driver(&sim, &sim_plane);
  sim_driver.start(kWindow);
  coord::SimTreeTransport::Options tree_options;
  tree_options.period = kWindow;
  tree_options.link_delay = 0;
  tree_options.first_round = kWindow;
  coord::SimTreeTransport sim_transport(&sim, 2, 2, tree_options);
  sim_plane.connect(&sim_transport);
  sim_transport.start();

  // Wall-clock side, driven by a fake microsecond clock.
  coord::ControlPlane wall_plane(&scheduler, config);
  std::vector<coord::ControlPlane::Member*> wall_members = {
      wall_plane.add_member(), wall_plane.add_member()};
  std::vector<std::vector<WindowRecord>> wall_records(2);
  for (std::size_t m = 0; m < 2; ++m)
    bind_recorder(wall_members[m], &wall_records[m]);
  coord::RoundProtocol wall_protocol(2, 2, {});
  wall_plane.connect(&wall_protocol);
  wall_protocol.start();
  // SimTime ticks are microseconds.
  coord::WallClockDriver wall_driver(&wall_plane, &wall_protocol, kWindow);

  for (int k = 1; k <= kWindows; ++k) {
    // Identical offered load, uneven across members so the proportional
    // local/global shares are genuinely exercised.
    for (auto* members : {&sim_members, &wall_members}) {
      (*members)[0]->record_arrival(0, 4.0 * k);
      (*members)[0]->record_arrival(1, 1.0);
      (*members)[1]->record_arrival(1, 2.0 * k);
    }
    sim.run_until(static_cast<SimTime>(k) * kWindow + 1);
    EXPECT_EQ(wall_driver.poll(static_cast<std::int64_t>(k) * kWindow), 1);
    // Same admission sequence against both planes.
    EXPECT_EQ(sim_members[0]->try_admit(0).has_value(),
              wall_members[0]->try_admit(0).has_value());
    EXPECT_EQ(sim_members[1]->try_admit(1).has_value(),
              wall_members[1]->try_admit(1).has_value());
  }

  for (std::size_t m = 0; m < 2; ++m) {
    ASSERT_EQ(sim_records[m].size(), static_cast<std::size_t>(kWindows));
    ASSERT_EQ(wall_records[m].size(), static_cast<std::size_t>(kWindows));
    for (std::size_t w = 0; w < static_cast<std::size_t>(kWindows); ++w)
      EXPECT_TRUE(sim_records[m][w] == wall_records[m][w])
          << "member " << m << " diverged at window " << w;
  }
  // Both transports must actually have delivered aggregates: window 1 is
  // snapshot-less on both drivers, window 2 onward plans on real snapshots.
  EXPECT_FALSE(sim_records[0][0].global_valid);
  EXPECT_FALSE(wall_records[0][0].global_valid);
  EXPECT_TRUE(sim_records[0][1].global_valid);
  EXPECT_TRUE(wall_records[0][1].global_valid);
}

// ---------------------------------------------------------------------------
// Conservative startup (§5.1, Figure 8 phase 1): before the first snapshot,
// every member takes exactly a 1/R slice of the saturated plan — on both
// drivers.
// ---------------------------------------------------------------------------

TEST(ControlPlane, ConservativeStartupPinsOneOverROnBothDrivers) {
  const test::FixedRateScheduler scheduler({100.0});
  coord::ControlPlaneConfig config;
  config.window = kWindow;
  config.redirector_count = 4;
  const double expected = 100.0 * kWindowSec / 4.0;  // plan * window / R

  // DES driver, no transport: members never see a snapshot.
  sim::Simulator sim;
  coord::ControlPlane sim_plane(&scheduler, config);
  for (int m = 0; m < 4; ++m) sim_plane.add_member();
  coord::SimWindowDriver sim_driver(&sim, &sim_plane);
  sim_driver.start(kWindow);
  sim.run_until(kWindow + 1);
  for (std::size_t m = 0; m < 4; ++m) {
    const coord::ControlPlane::Member* member = sim_plane.member(m);
    EXPECT_FALSE(member->global().valid);
    EXPECT_DOUBLE_EQ(member->window_scheduler().remaining_quota(0), expected);
    EXPECT_NO_THROW(audit::audit_control_plane_member_slices(
        member->window_scheduler().slices(),
        member->window_scheduler().last_plan().rate,
        /*share_cap=*/0.25, kWindowSec, 1e-7));
  }
  EXPECT_NO_THROW(sim_plane.audit_window_slices());

  // Wall-clock driver, null transport.
  coord::ControlPlane wall_plane(&scheduler, config);
  for (int m = 0; m < 4; ++m) wall_plane.add_member();
  coord::WallClockDriver driver(&wall_plane, nullptr, kWindow);
  EXPECT_EQ(driver.poll(0), 1);  // the first poll always opens a window
  for (std::size_t m = 0; m < 4; ++m) {
    const coord::ControlPlane::Member* member = wall_plane.member(m);
    EXPECT_FALSE(member->global().valid);
    EXPECT_DOUBLE_EQ(member->window_scheduler().remaining_quota(0), expected);
  }
  EXPECT_NO_THROW(wall_plane.audit_window_slices());

  // Once a snapshot arrives the member leaves phase 1: its share becomes
  // min(1, local/global) instead of 1/R.
  coord::ControlPlane::Member* hot = wall_plane.member(0);
  hot->record_arrival(0, 40.0);
  for (std::size_t m = 0; m < 4; ++m)
    wall_plane.member(m)->receive_global(0, {400.0});
  EXPECT_EQ(driver.poll(kWindow), 1);
  EXPECT_TRUE(hot->global().valid);
  const double local = hot->last_local_demand()[0];
  const double share = std::min(1.0, local / 400.0);
  EXPECT_DOUBLE_EQ(hot->window_scheduler().remaining_quota(0),
                   100.0 * kWindowSec * share);
  EXPECT_GT(hot->window_scheduler().remaining_quota(0), expected);
}

// ---------------------------------------------------------------------------
// Demand-spike fast path budget (satellite of D10): at most
// spike_replan_limit re-plans per member per window, fractional limits
// error-carried, suppressed attempts counted and reported.
// ---------------------------------------------------------------------------

TEST(ControlPlane, SpikeReplanBudgetBoundsTheFastPath) {
  const test::FixedRateScheduler scheduler({100.0});
  int replans = 0;
  int suppressed = 0;
  coord::ControlPlaneConfig config;
  config.window = kWindow;
  config.spike_replan_limit = 1.0;
  config.on_spike_replan = [&replans] { ++replans; };
  config.on_replan_suppressed = [&suppressed] { ++suppressed; };
  coord::ControlPlane plane(&scheduler, config);
  coord::ControlPlane::Member* member = plane.add_member();

  member->advance_window(0);
  EXPECT_TRUE(member->spike_replan());
  EXPECT_FALSE(member->spike_replan());  // budget exhausted this window
  EXPECT_FALSE(member->spike_replan());
  EXPECT_EQ(member->spike_replans(), 1u);
  EXPECT_EQ(member->replans_suppressed(), 2u);
  EXPECT_EQ(replans, 1);
  EXPECT_EQ(suppressed, 2);

  member->advance_window(kWindow);  // budget refills at the boundary
  EXPECT_TRUE(member->spike_replan());
  EXPECT_EQ(member->spike_replans(), 2u);
}

TEST(ControlPlane, FractionalReplanLimitAlternatesViaErrorCarry) {
  const test::FixedRateScheduler scheduler({100.0});
  coord::ControlPlaneConfig config;
  config.window = kWindow;
  config.spike_replan_limit = 0.5;  // one re-plan every other window
  coord::ControlPlane plane(&scheduler, config);
  coord::ControlPlane::Member* member = plane.add_member();

  member->advance_window(0);
  EXPECT_FALSE(member->spike_replan());  // carry 0.5: nothing released yet
  member->advance_window(kWindow);
  EXPECT_TRUE(member->spike_replan());  // carry reached 1.0
  EXPECT_FALSE(member->spike_replan());
  member->advance_window(2 * kWindow);
  EXPECT_FALSE(member->spike_replan());
  EXPECT_EQ(member->spike_replans(), 1u);
}

TEST(ControlPlane, ZeroReplanLimitDisablesTheFastPath) {
  const test::FixedRateScheduler scheduler({100.0});
  coord::ControlPlaneConfig config;
  config.window = kWindow;
  config.spike_replan_limit = 0.0;
  coord::ControlPlane plane(&scheduler, config);
  coord::ControlPlane::Member* member = plane.add_member();
  for (int w = 0; w < 3; ++w) {
    member->advance_window(w * kWindow);
    EXPECT_FALSE(member->spike_replan());
  }
  EXPECT_EQ(member->spike_replans(), 0u);
}

// ---------------------------------------------------------------------------
// Input validation: bad estimator weights and control-plane configs must be
// rejected at construction, not silently poison demand estimates.
// ---------------------------------------------------------------------------

TEST(ControlPlane, ArrivalEstimatorRejectsBadAlpha) {
  EXPECT_THROW(sched::ArrivalEstimator(0.0), ContractViolation);
  EXPECT_THROW(sched::ArrivalEstimator(-0.1), ContractViolation);
  EXPECT_THROW(sched::ArrivalEstimator(1.5), ContractViolation);
  EXPECT_THROW(
      sched::ArrivalEstimator(std::numeric_limits<double>::quiet_NaN()),
      ContractViolation);
  EXPECT_THROW(
      sched::ArrivalEstimator(std::numeric_limits<double>::infinity()),
      ContractViolation);
  EXPECT_NO_THROW(sched::ArrivalEstimator(1.0));
  EXPECT_NO_THROW(sched::ArrivalEstimator(0.3));
}

TEST(ControlPlane, ConfigValidationRejectsPoisonValues) {
  const test::FixedRateScheduler scheduler({100.0});
  const auto reject = [&scheduler](coord::ControlPlaneConfig config) {
    EXPECT_THROW(coord::ControlPlane(&scheduler, config), ContractViolation);
  };
  coord::ControlPlaneConfig config;
  config.window = 0;
  reject(config);
  config = {};
  config.redirector_count = 0;
  reject(config);
  config = {};
  config.estimator_alpha = std::numeric_limits<double>::quiet_NaN();
  reject(config);
  config = {};
  config.estimator_alpha = 1.5;
  reject(config);
  config = {};
  config.spike_replan_limit = -1.0;
  reject(config);
  config = {};
  config.spike_replan_limit = std::numeric_limits<double>::infinity();
  reject(config);
  EXPECT_NO_THROW(coord::ControlPlane(&scheduler, coord::ControlPlaneConfig{}));
}

TEST(ControlPlane, QuotaCarryResetDropsBankedFraction) {
  // Across a replan() the fractional credit earned against the superseded
  // plan must not combine with the new plan's fractions.
  sched::QuotaCarry with_reset;
  EXPECT_EQ(with_reset.take(0.6), 0u);
  with_reset.reset();
  EXPECT_EQ(with_reset.take(0.6), 0u);

  sched::QuotaCarry without_reset;
  EXPECT_EQ(without_reset.take(0.6), 0u);
  EXPECT_EQ(without_reset.take(0.6), 1u);  // 1.2 banked -> one released
}

// ---------------------------------------------------------------------------
// Transport seam.
// ---------------------------------------------------------------------------

TEST(ControlPlane, OneProcessRoundProtocolExchangesSynchronously) {
  coord::RoundProtocol transport(2, 2, {});
  std::vector<std::uint64_t> rounds;
  std::vector<double> last_aggregate;
  for (std::size_t m = 0; m < 2; ++m) {
    transport.attach(
        m,
        [m] {
          const double base = 2.0 * static_cast<double>(m);
          return std::vector<double>{1.0 + base, 2.0 + base};
        },
        [&rounds, &last_aggregate](std::uint64_t round,
                                   const std::vector<double>& aggregate) {
          rounds.push_back(round);
          last_aggregate = aggregate;
        });
  }

  transport.open_round(0);  // no-op before start()
  EXPECT_TRUE(rounds.empty());
  EXPECT_EQ(transport.rounds_completed(), 0u);

  transport.start();
  transport.open_round(0);  // completes before it returns
  ASSERT_EQ(rounds.size(), 2u);  // both members, same round
  EXPECT_EQ(rounds[0], 1u);
  EXPECT_EQ(rounds[1], 1u);
  ASSERT_EQ(last_aggregate.size(), 2u);
  EXPECT_DOUBLE_EQ(last_aggregate[0], 4.0);  // 1 + 3
  EXPECT_DOUBLE_EQ(last_aggregate[1], 6.0);  // 2 + 4
  EXPECT_EQ(transport.messages_sent(), 4u);  // R up + R down
  transport.open_round(0);
  EXPECT_EQ(rounds.back(), 2u);
  EXPECT_EQ(transport.rounds_completed(), 2u);

  transport.stop();
  transport.open_round(0);  // no-op after stop()
  EXPECT_EQ(transport.rounds_completed(), 2u);
}

// The seam's third implementation is real now: a root and a leaf transport
// (two logical processes sharing this test process) complete one round over
// loopback TCP. The full protocol matrix — deadlines, staleness, fuzzing —
// lives in socket_transport_test.cpp; this pins the ControlPlane-facing
// contract: attach/start/poll/stop, round tags from 1, star accounting.
TEST(ControlPlane, SocketTransportRunsALoopbackRound) {
  coord::SocketTransport::Options root_options;
  root_options.peers = {"127.0.0.1:0", "127.0.0.1:0"};
  root_options.process_index = 0;
  root_options.fleet_size = 2;
  root_options.round_period_usec = 1000;
  root_options.round_deadline_usec = 1'000'000;
  coord::SocketTransport root(1, 2, root_options);
  std::vector<std::uint64_t> root_rounds;
  std::vector<double> root_aggregate;
  root.attach(
      0, [] { return std::vector<double>{1.0, 2.0}; },
      [&](std::uint64_t round, const std::vector<double>& sum) {
        root_rounds.push_back(round);
        root_aggregate = sum;
      });
  root.start();

  coord::SocketTransport::Options leaf_options = root_options;
  leaf_options.process_index = 1;
  leaf_options.member_offset = 1;
  leaf_options.peers[0] = "127.0.0.1:" + std::to_string(root.listen_port());
  coord::SocketTransport leaf(1, 2, leaf_options);
  std::vector<std::uint64_t> leaf_rounds;
  std::vector<double> leaf_aggregate;
  leaf.attach(
      0, [] { return std::vector<double>{3.0, 4.0}; },
      [&](std::uint64_t round, const std::vector<double>& sum) {
        leaf_rounds.push_back(round);
        leaf_aggregate = sum;
      });
  leaf.start();

  // Fake clocks, real sockets: poll both sides until the aggregate lands on
  // the leaf, giving the bytes a beat to cross the loopback between polls.
  std::int64_t now = 0;
  for (int i = 0; i < 2000 && leaf_rounds.empty(); ++i) {
    leaf.poll(now);
    root.poll(now);
    now += 500;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  root.stop();
  leaf.stop();

  ASSERT_FALSE(root_rounds.empty());
  ASSERT_FALSE(leaf_rounds.empty());
  EXPECT_EQ(root_rounds.front(), 1u);  // round tags start at 1
  EXPECT_EQ(leaf_rounds.front(), 1u);
  const std::vector<double> expected = {4.0, 6.0};  // summed in member order
  EXPECT_EQ(root_aggregate, expected);
  EXPECT_EQ(leaf_aggregate, expected);
  // Star accounting across the fleet: R reports up + R broadcasts down.
  EXPECT_GE(root.messages_sent() + leaf.messages_sent(),
            4u * root_rounds.size());
}

// ---------------------------------------------------------------------------
// Control-plane audits: each check passes on honest state and fires on
// corrupted state with an actionable message.
// ---------------------------------------------------------------------------

TEST(ControlPlaneAudit, SnapshotRoundsMustStrictlyIncrease) {
  EXPECT_NO_THROW(audit::audit_control_plane_snapshot(false, 0, 0));
  EXPECT_NO_THROW(audit::audit_control_plane_snapshot(true, 3, 4));
  EXPECT_NO_THROW(audit::audit_control_plane_snapshot(true, 3, 9));  // gap ok
  const std::string repeat = violation_message(
      [] { audit::audit_control_plane_snapshot(true, 5, 5); });
  EXPECT_NE(repeat.find("coord.snapshot-monotone"), std::string::npos);
  const std::string regress = violation_message(
      [] { audit::audit_control_plane_snapshot(true, 5, 3); });
  EXPECT_NE(regress.find("coord.snapshot-monotone"), std::string::npos);
}

TEST(ControlPlaneAudit, MemberSliceCapBoundsEachCell) {
  Matrix plan(1, 1, 100.0);
  Matrix slices(1, 1, 2.5);  // exactly plan * 1/R * window
  EXPECT_NO_THROW(audit::audit_control_plane_member_slices(
      slices, plan, /*share_cap=*/0.25, kWindowSec, 1e-7));

  slices(0, 0) = 2.6;  // above the 1/R cap
  const std::string over = violation_message([&] {
    audit::audit_control_plane_member_slices(slices, plan, 0.25, kWindowSec,
                                             1e-7);
  });
  EXPECT_NE(over.find("coord.member-slice-cap"), std::string::npos);

  slices(0, 0) = -0.5;  // negative slice
  const std::string negative = violation_message([&] {
    audit::audit_control_plane_member_slices(slices, plan, 0.25, kWindowSec,
                                             1e-7);
  });
  EXPECT_NE(negative.find("coord.member-slice-cap"), std::string::npos);

  const Matrix wrong_shape(2, 2, 0.0);
  const std::string shape = violation_message([&] {
    audit::audit_control_plane_member_slices(wrong_shape, plan, 0.25,
                                             kWindowSec, 1e-7);
  });
  EXPECT_NE(shape.find("coord.slice-shape"), std::string::npos);
}

TEST(ControlPlaneAudit, SliceSumConservationAcrossTheFleet) {
  Matrix plan(1, 1, 100.0);
  Matrix sum(1, 1, 10.0);  // the full plan cell: 100 req/s * 0.1 s
  EXPECT_NO_THROW(
      audit::audit_control_plane_slice_sum(sum, plan, kWindowSec, 1e-7));
  sum(0, 0) = 10.1;
  const std::string msg = violation_message(
      [&] { audit::audit_control_plane_slice_sum(sum, plan, kWindowSec, 1e-7); });
  EXPECT_NE(msg.find("coord.slice-conservation"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The live facade: one member on its own plane, windows rolled by the wall
// clock and snapshots exchanged in-process.
// ---------------------------------------------------------------------------

TEST(WallClockAdmission, FacadeRollsWindowsAndExchangesSnapshots) {
  const test::FixedRateScheduler scheduler({1000.0});
  live::WallClockAdmission admission(&scheduler, /*window_usec=*/100000);
  admission.reset_clock();

  const auto first = admission.try_admit(/*principal=*/0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 0u);
  EXPECT_TRUE(admission.try_admit(/*principal=*/0).has_value());
  EXPECT_GE(admission.windows_begun(), 1u);
  EXPECT_GE(admission.snapshot_rounds(), 1u);
  EXPECT_EQ(admission.plane().member_count(), 1u);
}

}  // namespace
}  // namespace sharegrid
