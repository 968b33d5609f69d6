// plane_socket: R = 4 control-plane "processes" in one benchmark process,
// laid out as examples/multi_process_demo lays them out: each has its own
// coord::ControlPlane (one member), ResponseTimeScheduler and
// coord::SocketTransport (member_offset = i, fleet_size = R), and one thread
// polls all four. Rounds run back to back (closed loop) over a fixed
// 64-principal provider graph; seeded per-window arrivals switch groups of
// principals on and off, so the warm-started LP sometimes needs dual
// recovery or a cold solve.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "coord/control_plane.hpp"
#include "coord/socket_transport.hpp"
#include "core/flow.hpp"
#include "sched/response_time_scheduler.hpp"
#include "util/time.hpp"

namespace perfbench {
namespace {

namespace coord = sharegrid::coord;
namespace core = sharegrid::core;
namespace sched = sharegrid::sched;

constexpr std::size_t kMembers = 4;
constexpr std::size_t kPrincipals = 64;
constexpr std::size_t kGroups = 8;

/// Provider S plus 63 customers with random [lb, ub] agreements (the
/// bench/micro_lp provider graph). The graph is the same for every seed so
/// that seeds vary the offered load, not the size of the program solved.
core::AgreementGraph provider_graph() {
  SeqRng rng(42);
  core::AgreementGraph g;
  g.add_principal("S", 1000.0);
  double budget = 1.0;
  for (std::size_t i = 1; i < kPrincipals; ++i) {
    g.add_principal("P" + std::to_string(i), 0.0);
    const double lb = rng.uniform(0.0, budget * 0.5);
    g.set_agreement(0, i, lb, rng.uniform(lb, 1.0));
    budget -= lb;
  }
  return g;
}

/// Every round's aggregate, checked as it arrives against the member-order
/// sum of what the members sampled for that round. The samples are dropped
/// once every member has the aggregate, so the benchmark's own records grow
/// by one aggregate per round, not by one vector per member and round (the
/// number of rounds in a run follows the host's speed, and records that
/// grow with it would move peak_rss_mb).
class Ledger {
 public:
  void sample(std::size_t m, std::uint64_t round, const std::vector<double>& demand) {
    open_[round].sampled[m] = demand;
  }

  void deliver(std::size_t m, std::uint64_t round,
               const std::vector<double>& aggregate) {
    if (m == 0) root_delivered_ns[round] = now_ns();
    auto [it, first] = aggregates.try_emplace(round);
    if (first) {
      std::vector<double> sum(kPrincipals, 0.0);
      for (const auto& sampled : open_[round].sampled)
        for (std::size_t i = 0; i < sampled.size(); ++i) sum[i] += sampled[i];
      it->second = std::move(sum);
    }
    if (error.empty() &&
        std::memcmp(aggregate.data(), it->second.data(),
                    kPrincipals * sizeof(double)) != 0)
      error = "member " + std::to_string(m) +
              " received a wrong aggregate for round " + std::to_string(round);
    if (++open_[round].deliveries == kMembers) open_.erase(round);
  }

  /// round -> the member-order sum of the members' samples.
  std::map<std::uint64_t, std::vector<double>> aggregates;
  std::map<std::uint64_t, std::int64_t> root_delivered_ns;
  std::string error;  ///< the first wrong aggregate

 private:
  struct Open {
    std::array<std::vector<double>, kMembers> sampled;  ///< empty = none
    std::size_t deliveries = 0;
  };
  std::map<std::uint64_t, Open> open_;
};

/// Passes each member's samples and deliveries to the ledger.
class RecordingTransport final : public coord::SnapshotTransport {
 public:
  RecordingTransport(coord::SnapshotTransport* inner, Ledger* ledger,
                     std::size_t member_index)
      : inner_(inner), ledger_(ledger), index_(member_index) {}

  void attach(std::size_t member, Provider provider,
              Receiver receiver) override {
    inner_->attach(
        member,
        [this, provider = std::move(provider)] {
          std::vector<double> demand = provider();
          ledger_->sample(index_, current_round, demand);
          return demand;
        },
        [this, receiver = std::move(receiver)](
            std::uint64_t round, const std::vector<double>& aggregate) {
          ledger_->deliver(index_, round, aggregate);
          last_delivered = round;
          ++events;
          receiver(round, aggregate);
        });
  }
  void start() override { inner_->start(); }
  void stop() override { inner_->stop(); }
  std::uint64_t messages_sent() const override {
    return inner_->messages_sent();
  }

  std::uint64_t current_round = 0;  ///< set by the round-start hook
  std::uint64_t last_delivered = 0;
  std::uint64_t events = 0;

 private:
  coord::SnapshotTransport* inner_;
  Ledger* ledger_;
  std::size_t index_;
};

/// What one member's window step planned against.
struct WindowRecord {
  std::uint64_t aggregate_round = 0;  ///< 0 = no snapshot (1/R regime)
  std::vector<double> local;
};

struct Member {
  std::unique_ptr<sched::ResponseTimeScheduler> scheduler;
  std::unique_ptr<TimedScheduler> timed;
  std::unique_ptr<coord::ControlPlane> plane;
  coord::ControlPlane::Member* member = nullptr;
  std::unique_ptr<coord::SocketTransport> transport;
  std::unique_ptr<RecordingTransport> recorder;
  std::uint64_t windows = 0;
  std::vector<WindowRecord> records;
  std::vector<double> step_ms;  ///< window step minus plan, traced only
};

class Fleet {
 public:
  Fleet(std::uint64_t seed, std::uint64_t switch_windows,
        const core::AgreementGraph& graph,
        const core::AccessLevels& levels)
      : seed_(seed),
        switch_windows_(switch_windows),
        window_(100 * sharegrid::kMillisecond) {
    for (std::size_t m = 0; m < kMembers; ++m) {
      auto& mb = members_[m];
      mb.scheduler =
          std::make_unique<sched::ResponseTimeScheduler>(graph, levels);
      mb.timed = std::make_unique<TimedScheduler>(mb.scheduler.get(), true);
      coord::ControlPlaneConfig config;
      config.window = window_;
      config.redirector_count = kMembers;
      mb.plane = std::make_unique<coord::ControlPlane>(mb.timed.get(), config);
      mb.member = mb.plane->add_member();
    }
    for (std::size_t m = 0; m < kMembers; ++m) {
      coord::SocketTransport::Options options;
      options.peers.assign(kMembers, "127.0.0.1:0");
      if (m > 0)
        options.peers[0] =
            "127.0.0.1:" + std::to_string(members_[0].transport->listen_port());
      options.process_index = m;
      options.member_offset = m;
      options.fleet_size = kMembers;
      options.round_period_usec = 1;  // closed loop: next round at once
      options.round_deadline_usec = 2'000'000;
      options.stale_after_usec = 60'000'000;
      options.lease_ttl_usec = 60'000'000;
      options.election_enabled = false;
      options.reconnect_base_usec = 1000;
      options.io_timeout_ms = 50;
      options.on_round_start = [this, m](std::uint64_t round) {
        on_round(m, round);
      };
      auto& mb = members_[m];
      mb.transport = std::make_unique<coord::SocketTransport>(
          1, kPrincipals, std::move(options));
      mb.recorder =
          std::make_unique<RecordingTransport>(mb.transport.get(), &ledger, m);
      mb.plane->connect(mb.recorder.get());
      mb.recorder->start();
    }
  }

  ~Fleet() { stop(); }

  void stop() {
    for (auto& mb : members_)
      if (mb.recorder) mb.recorder->stop();
  }

  /// One pass over every transport. Returns true when no window began and
  /// no aggregate arrived (an idle poll).
  bool poll_all() {
    const std::uint64_t before = activity();
    for (auto& mb : members_) {
      const std::int64_t now_usec = now_ns() / 1000;
      mb.transport->poll(now_usec);
    }
    return activity() == before;
  }

  /// Polls until every member has planned against a delivered aggregate.
  bool settle(double timeout_s) {
    const std::int64_t start = now_ns();
    while (seconds_since(start) < timeout_s) {
      poll_all();
      bool ready = true;
      for (auto& mb : members_) ready = ready && mb.recorder->last_delivered > 0;
      if (ready) return true;
    }
    return false;
  }

  std::uint64_t activity() const {
    std::uint64_t n = 0;
    for (const auto& mb : members_) n += mb.windows + mb.recorder->events;
    return n;
  }

  Member& member(std::size_t m) { return members_[m]; }
  Ledger ledger;
  std::map<std::uint64_t, std::int64_t> open_ns;   ///< root round start
  std::map<std::uint64_t, std::int64_t> done_ns;  ///< last member planned

 private:
  void on_round(std::size_t m, std::uint64_t round) {
    Member& mb = members_[m];
    const std::int64_t start = now_ns();
    if (m == 0) open_ns[round] = start;
    mb.recorder->current_round = round;
    {
      const Span span("coord", "ControlPlane window step");
      ++mb.windows;
      if (mb.windows == 1) {
        mb.plane->begin_windows(0);
      } else {
        mb.plane->end_windows();
        mb.plane->begin_windows(static_cast<sharegrid::SimTime>(mb.windows - 1) *
                                window_);
      }
    }
    const std::int64_t end = now_ns();
    if (Tracer::enabled())
      mb.step_ms.push_back(
          (static_cast<double>(end - start) - mb.timed->last_plan_ns()) * 1e-6);
    mb.records.push_back({mb.member->global().valid ? mb.recorder->last_delivered
                                                    : 0,
                          mb.member->last_local_demand()});
    inject_arrivals(m, mb.windows);
    std::int64_t& done = done_ns[round];
    done = std::max(done, end);
  }

  /// Seeded offered load: customer principals fall into eight groups, each
  /// on for 5 and off for 3 periods out of every 8, from a seeded phase, so
  /// every seed switches the same number of groups per run; a period is
  /// switch_windows windows (5 unless --switch-windows says otherwise). An
  /// active principal's per-member arrivals are seeded jitter around a
  /// fixed rate.
  void inject_arrivals(std::size_t m, std::uint64_t window) {
    const double window_sec = sharegrid::to_seconds(window_);
    for (std::size_t p = 1; p < kPrincipals; ++p) {
      const std::size_t group = p % kGroups;
      const auto phase = static_cast<std::uint64_t>(unit(seed_, 0x6e, group) * 8);
      if ((window / switch_windows_ + phase) % 8 >= 5) continue;
      const double base = 5.0 + 35.0 * unit(0xba5e, p);
      const double jitter = 0.5 + unit(seed_, 0x717, p, window * kMembers + m);
      members_[m].member->record_arrival(p, base * jitter * window_sec);
    }
  }

  std::uint64_t seed_;
  std::uint64_t switch_windows_;
  sharegrid::SimDuration window_;
  Member members_[kMembers];
};

/// Independent check: every aggregate is the member-order sum of what the
/// members sampled for that round, and every member's plan each window is
/// bitwise what a fresh scheduler plans for max(aggregate, local demand) —
/// or the saturated demand of the no-snapshot regime.
void check_fleet(Fleet& fleet, const core::AgreementGraph& graph,
                 const core::AccessLevels& levels, Result& out) {
  if (!fleet.ledger.error.empty()) {
    out.check(false, "plane_socket: " + fleet.ledger.error);
    return;
  }
  const auto& sums = fleet.ledger.aggregates;

  std::vector<std::string> mismatches(kMembers);
  std::vector<std::thread> replays;
  for (std::size_t m = 0; m < kMembers; ++m) {
    replays.emplace_back([&, m] {
      const Member& mb = fleet.member(m);
      const sched::ResponseTimeScheduler fresh(graph, levels);
      const auto& digests = mb.timed->digests();
      if (digests.size() != mb.records.size()) {
        mismatches[m] = "plan count differs from window count";
        return;
      }
      for (std::size_t w = 0; w < mb.records.size(); ++w) {
        const WindowRecord& rec = mb.records[w];
        std::vector<double> demand(kPrincipals, 1e9);
        if (rec.aggregate_round > 0) {
          const auto& aggregate = sums.at(rec.aggregate_round);
          for (std::size_t i = 0; i < kPrincipals; ++i)
            demand[i] = std::max(aggregate[i], rec.local[i]);
        }
        if (plan_digest(fresh.plan(demand)) != digests[w]) {
          mismatches[m] = "plan differs from replay at window " +
                          std::to_string(w + 1);
          return;
        }
      }
    });
  }
  for (auto& t : replays) t.join();
  for (std::size_t m = 0; m < kMembers; ++m)
    out.check(mismatches[m].empty(),
              "plane_socket: member " + std::to_string(m) + ": " + mismatches[m]);
}

struct Window {
  std::vector<double> latency_ms;
  std::vector<double> round_ms;
  std::uint64_t rounds = 0;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of the whole process meanwhile
  std::uint64_t polls = 0;
  std::uint64_t idle_polls = 0;
};

/// Polls for @p seconds and collects latencies of the rounds opened in it.
Window measure(Fleet& fleet, double seconds) {
  Window w;
  const std::uint64_t first_round =
      fleet.open_ns.empty() ? 1 : fleet.open_ns.rbegin()->first + 1;
  const double cpu_start = process_cpu_s();
  const std::int64_t start = now_ns();
  while (seconds_since(start) < seconds) {
    ++w.polls;
    if (fleet.poll_all()) ++w.idle_polls;
  }
  w.elapsed_s = seconds_since(start);
  w.cpu_s = process_cpu_s() - cpu_start;
  // A round counts once every member planned it; the one in flight at the
  // deadline is left out.
  for (auto it = fleet.open_ns.lower_bound(first_round);
       it != fleet.open_ns.end(); ++it) {
    const auto done = fleet.done_ns.find(it->first);
    std::size_t planned = 0;
    for (std::size_t m = 0; m < kMembers; ++m)
      planned += fleet.member(m).windows >= it->first;
    if (done == fleet.done_ns.end() || planned < kMembers) continue;
    ++w.rounds;
    w.latency_ms.push_back(static_cast<double>(done->second - it->second) * 1e-6);
    // Round time at the root: round opened -> aggregate delivered there.
    const auto& delivered_ns = fleet.ledger.root_delivered_ns;
    const auto root = delivered_ns.find(it->first);
    if (root != delivered_ns.end())
      w.round_ms.push_back(static_cast<double>(root->second - it->second) * 1e-6);
  }
  return w;
}

}  // namespace

void run_plane_socket(const Options& opts, Result& out) {
  Tracer::set_enabled(opts.trace);
  const core::AgreementGraph graph = provider_graph();

  // --- set-up: flow analysis, schedulers, sessions, first round -----------
  std::vector<double> flow_ms;
  std::unique_ptr<Fleet> fleet;
  core::AccessLevels levels;
  bool settled = true;
  const std::vector<double> setup_s = time_setups([&](bool timed) {
    fleet.reset();  // tear down the previous fleet first
    const std::int64_t start = now_ns();
    {
      const Span span("core", "compute_access_levels");
      levels = core::compute_access_levels(graph);
    }
    if (timed) flow_ms.push_back(seconds_since(start) * 1e3);
    fleet = std::make_unique<Fleet>(opts.seed, opts.switch_windows, graph,
                                    levels);
    settled = settled && fleet->settle(10.0);
    return seconds_since(start);
  });
  out.check(settled, "plane_socket: fleet never delivered a first round");
  if (!settled) return;

  Window untraced, traced;
  std::uint64_t windows_before = 0;
  if (!opts.trace) {
    untraced = measure(*fleet, opts.seconds);
  } else {
    Tracer::set_enabled(false);
    untraced = measure(*fleet, opts.seconds / 2);
    Tracer::set_enabled(true);
    windows_before = fleet->member(0).windows;
    for (std::size_t m = 0; m < kMembers; ++m) fleet->member(m).step_ms.clear();
    traced = measure(*fleet, opts.seconds / 2);
  }
  fleet->stop();

  std::uint64_t abandoned = 0, rejected = 0, messages = 0;
  for (std::size_t m = 0; m < kMembers; ++m) {
    abandoned += fleet->member(m).transport->rounds_abandoned();
    rejected += fleet->member(m).transport->frames_rejected();
    messages += fleet->member(m).transport->messages_sent();
  }
  const std::uint64_t completed = fleet->member(0).transport->rounds_completed();
  out.attempted = completed + abandoned;
  out.failed = abandoned + rejected;
  check_fleet(*fleet, graph, levels, out);
  out.check(abandoned == 0 && rejected == 0,
            "plane_socket: rounds abandoned or frames rejected on a clean run");

  std::printf("plane_socket: %llu windows in %.3f s wall, %.3f CPU s\n",
              static_cast<unsigned long long>(untraced.rounds),
              untraced.elapsed_s, untraced.cpu_s);
  if (!opts.trace) {
    out.put("setup_s", median(setup_s), "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.put("ops_per_s", static_cast<double>(untraced.rounds) / untraced.cpu_s,
            "1/s");
    return;
  }

  std::vector<double> plan_us, step_ms;
  sharegrid::lp::SolveStats stats;
  for (std::size_t m = 0; m < kMembers; ++m) {
    const Member& mb = fleet->member(m);
    const auto us = mb.timed->plan_us();
    plan_us.insert(plan_us.end(), us.begin(), us.end());
    step_ms.insert(step_ms.end(), mb.step_ms.begin(), mb.step_ms.end());
    stats += mb.scheduler->solver_stats();
  }
  out.put("trace.overhead_pct",
          (quantile(traced.latency_ms, 0.5) / quantile(untraced.latency_ms, 0.5) -
           1.0) * 100.0,
          "%");
  out.put("core.flow_ms", median(flow_ms), "ms");
  out.put("plane.window_p50_ms", quantile(traced.latency_ms, 0.5), "ms");
  out.put("plane.window_p99_ms", quantile(traced.latency_ms, 0.99), "ms");
  out.put("coord.windows",
          static_cast<double>(fleet->member(0).windows - windows_before), "count");
  out.put("coord.spike_replans", 0.0, "count");
  out.put("coord.poll_idle_frac",
          static_cast<double>(traced.idle_polls) /
              static_cast<double>(std::max<std::uint64_t>(1, traced.polls)),
          "ratio");
  out.put("coord.messages_per_round",
          static_cast<double>(messages) /
              static_cast<double>(std::max<std::uint64_t>(1, completed)),
          "count");
  out.put("coord.rounds_abandoned", static_cast<double>(abandoned), "count");
  out.put("coord.frames_rejected", static_cast<double>(rejected), "count");
  out.put("coord.round_ms_p50", quantile(traced.round_ms, 0.5), "ms");
  out.put("coord.round_ms_p99", quantile(traced.round_ms, 0.99), "ms");
  out.put("coord.window_step_ms", quantile(step_ms, 0.5), "ms");
  put_plan_metrics(out, plan_us, stats);
}

}  // namespace perfbench
