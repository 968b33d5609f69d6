// The discrete-event workload, sim_fleet: the million_clients.ini fleet
// (32 clusters x 1,000,000 closed-loop L4 clients on the sharded engine, one
// lane per core) with its phase schedule compressed so that B's burst and
// A's recovery fall inside one short run.
//
// It is measured through experiments::load_scenario_file and
// experiments::run_scenario only. The scenario text is generated from the
// seed; the library sees nothing but that file.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <memory>
#include <sstream>
#include <string>

#include "common.hpp"
#include "core/flow.hpp"
#include "experiments/scenario.hpp"
#include "experiments/scenario_ini.hpp"
#include "sched/response_time_scheduler.hpp"
#include "util/metrics_registry.hpp"

namespace perfbench {
namespace {

namespace ex = sharegrid::experiments;

/// One simulated workload: its scenario text plus how to check it.
struct SimShape {
  std::string name;
  std::string ini;
  std::string contention_phase;  ///< phase whose rates must sit in the bands
};

std::size_t lanes() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/// million_clients.ini with a 5 s schedule: A's fleet runs throughout, B's
/// bursts from 1.5 s to 3.5 s. The seed picks the client RNG streams.
SimShape fleet_shape(std::uint64_t seed) {
  std::ostringstream ini;
  ini << "layer = l4\nscheduler = response_time\nduration = 5\n"
      << "redirectors = 1\nseed = " << (seed % 1000000007ULL) + 1 << "\n"
      << "clusters = 32\nsim_shards = " << lanes() << "\n"
      << "client_scale = 15625\ntree_link_delay = 0.25\nmax_outstanding = 4\n"
      << "[principal]\nname = A\n[principal]\nname = B\n"
      << "[agreement]\nowner = A\nuser = B\nlower = 0.25\nupper = 0.5\n"
      << "[agreement]\nowner = B\nuser = A\nlower = 0.25\nupper = 0.5\n";
  for (int s = 0; s < 4; ++s) ini << "[server]\nowner = A\ncapacity = 5000\n";
  for (int s = 0; s < 4; ++s) ini << "[server]\nowner = B\ncapacity = 3000\n";
  ini << "[client]\nname = load-a\nprincipal = A\nrate = 1.6\nactive = 0-5\n"
      << "[client]\nname = load-b\nprincipal = B\nrate = 1.6\n"
      << "active = 1.5-3.5\n"
      << "[phase]\nname = a_alone\nstart = 0.5\nend = 1.5\n"
      << "[phase]\nname = b_burst\nstart = 2.5\nend = 3.5\n"
      << "[phase]\nname = a_recovers\nstart = 4.25\nend = 5\n";
  return {"sim_fleet", ini.str(), "b_burst"};
}

struct RunOutcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of the whole process meanwhile
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t l4_admitted = 0;
  std::uint64_t l4_dropped = 0;
  std::uint64_t windows = 0;
  std::uint64_t spike_replans = 0;
  std::optional<ex::ScenarioResult> result;
};

std::uint64_t fold(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return mix(h ^ bits);
}

RunOutcome run_once(const ex::ScenarioConfig& config) {
  RunOutcome out;
  const double cpu_start = process_cpu_s();
  const std::int64_t start = now_ns();
  {
    const Span span("experiments", "run_scenario");
    out.result.emplace(ex::run_scenario(config));
  }
  out.wall_s = seconds_since(start);
  out.cpu_s = process_cpu_s() - cpu_start;
  auto& metrics = sharegrid::util::global_metrics();
  out.events = metrics.counter("sim.events").value();
  out.epochs = metrics.counter("sim.epochs").value();
  out.cross_posts = metrics.counter("sim.cross_posts").value();
  out.l4_admitted = metrics.counter("l4.admitted").value();
  out.l4_dropped = metrics.counter("l4.dropped").value();
  out.windows = metrics.counter("coord.windows").value();
  out.spike_replans = metrics.counter("coord.spike_replans").value();
  // The digest covers what the run computed, not how fast: event and
  // admission totals plus every per-phase served rate, bit for bit.
  std::uint64_t h = mix(out.events) ^ mix(out.result->total_admitted + 1);
  for (const auto& phase : out.result->phase_reports)
    for (const double rate : phase.served_rate) h = fold(h, rate);
  out.digest = h;
  return out;
}

/// Capacities as the runner sees them: the declared machines, times the
/// cluster count in partitioned mode.
sharegrid::core::AgreementGraph effective_graph(const ex::ScenarioConfig& c) {
  sharegrid::core::AgreementGraph graph = c.graph;
  const double copies = static_cast<double>(std::max<std::size_t>(1, c.clusters));
  for (sharegrid::core::PrincipalId p = 0; p < graph.size(); ++p)
    graph.set_capacity(p, 0.0);
  for (const auto& server : c.servers) {
    const auto owner = graph.find(server.owner);
    graph.set_capacity(owner, graph.capacity(owner) + server.capacity * copies);
  }
  return graph;
}

/// Every principal's served rate in the contention phase must sit inside
/// its agreement band: at least min(offered, MC) and at most MC + OC
/// (access levels of §3.1), with a 10% allowance for the measurement
/// window catching the tail of the control loop's settling.
void check_bands(const SimShape& shape, const ex::ScenarioResult& result,
                 const sharegrid::core::AccessLevels& levels, Result& out) {
  constexpr double kTolerance = 0.10;
  const ex::PhaseReport* phase = nullptr;
  for (const auto& report : result.phase_reports)
    if (report.name == shape.contention_phase) phase = &report;
  out.check(phase != nullptr, shape.name + ": no contention phase report");
  if (phase == nullptr) return;
  for (std::size_t p = 0; p < phase->served_rate.size(); ++p) {
    const double mc = levels.mandatory_capacity[p];
    const double oc = levels.optional_capacity[p];
    const double served = phase->served_rate[p];
    const double lo = std::min(phase->offered_rate[p], mc) * (1.0 - kTolerance);
    const double hi = (mc + oc) * (1.0 + kTolerance);
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s: principal %s served %.1f/s in %s, band [%.1f, %.1f] "
                  "(offered %.1f, MC %.1f, OC %.1f)",
                  shape.name.c_str(), result.principal_names[p].c_str(), served,
                  phase->name.c_str(), lo, hi, phase->offered_rate[p], mc, oc);
    std::printf("%s\n", line);
    out.check(served >= lo && served <= hi, line);
  }
}

/// Replays the per-window decision log through fresh schedulers, one per
/// redirector as in the run, and reports plan latency and LP counters.
void replay_windows(const sharegrid::core::AgreementGraph& graph,
                    const sharegrid::core::AccessLevels& levels,
                    const sharegrid::nodes::WindowTrace& trace, Result& out) {
  std::map<std::string, std::unique_ptr<sharegrid::sched::ResponseTimeScheduler>>
      schedulers;
  std::vector<double> plan_us;
  sharegrid::lp::SolveStats stats;
  std::map<std::string, std::unique_ptr<TimedScheduler>> timed;
  for (const auto& row : trace.rows()) {
    auto& scheduler = schedulers[row.redirector];
    if (!scheduler) {
      scheduler = std::make_unique<sharegrid::sched::ResponseTimeScheduler>(
          graph, levels);
      timed[row.redirector] = std::make_unique<TimedScheduler>(scheduler.get());
    }
    std::vector<double> demand(row.local_demand.size(), 1e9);
    if (!row.global_demand.empty())
      for (std::size_t i = 0; i < demand.size(); ++i)
        demand[i] = std::max(row.global_demand[i], row.local_demand[i]);
    (void)timed[row.redirector]->plan(demand);
  }
  for (const auto& [name, t] : timed) {
    const auto samples = t->plan_us();
    plan_us.insert(plan_us.end(), samples.begin(), samples.end());
  }
  for (const auto& [name, s] : schedulers) stats += s->solver_stats();
  put_plan_metrics(out, plan_us, stats);
}

void run_sim(const SimShape& shape, const Options& opts, Result& out) {
  Tracer::set_enabled(opts.trace);
  const std::string path = opts.work_dir + "/" + shape.name + "-" +
                           std::to_string(opts.seed) + ".ini";
  {
    std::ofstream file(path);
    file << shape.ini;
    out.check(static_cast<bool>(file), "could not write " + path);
  }

  // --- set-up: load the file and build every node, repeatedly -------------
  // A run of one simulated millisecond is the shortest run_scenario call:
  // its wall time is the node build (1M clients on sim_fleet) and little
  // else.
  std::vector<double> load_s, build_s;
  ex::ScenarioConfig config;
  std::uint64_t setup_digest = 0;
  const std::vector<double> setup_s = time_setups([&](bool timed) {
    const std::int64_t start = now_ns();
    {
      const Span span("experiments", "load_scenario_file");
      config = ex::load_scenario_file(path);
    }
    const double loaded = seconds_since(start);
    ex::ScenarioConfig build_only = config;
    build_only.duration_sec = 0.001;
    const RunOutcome built = run_once(build_only);
    out.check(setup_digest == 0 || built.digest == setup_digest,
              shape.name + ": set-up runs disagree");
    setup_digest = built.digest;
    if (timed) {
      load_s.push_back(loaded);
      build_s.push_back(built.wall_s);
    }
    return seconds_since(start);
  });

  const sharegrid::core::AgreementGraph graph = effective_graph(config);
  std::vector<double> flow_ms;
  sharegrid::core::AccessLevels levels;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t start = now_ns();
    const Span span("core", "compute_access_levels");
    levels = sharegrid::core::compute_access_levels(graph);
    flow_ms.push_back(seconds_since(start) * 1e3);
  }

  // --- timed runs ------------------------------------------------------------
  const double windows_per_run =
      config.duration_sec / sharegrid::to_seconds(config.window);
  const auto timed_runs = [&](double budget_s, bool traced,
                              std::vector<RunOutcome>* runs) {
    ex::ScenarioConfig c = config;
    c.trace_windows = traced;
    Tracer::set_enabled(traced);
    const std::int64_t start = now_ns();
    do {
      runs->push_back(run_once(c));
      ++out.attempted;
    } while (seconds_since(start) < budget_s);
    Tracer::set_enabled(opts.trace);
  };
  const auto per_window_ms = [&](const std::vector<RunOutcome>& runs) {
    std::vector<double> ms;
    for (const auto& r : runs) ms.push_back(r.wall_s * 1e3 / windows_per_run);
    return ms;
  };

  std::vector<RunOutcome> runs;
  std::vector<RunOutcome> traced_runs;
  if (!opts.trace) {
    // At least two calls, so the determinism check always has a pair.
    timed_runs(opts.seconds, false, &runs);
    if (runs.size() < 2) runs.push_back(run_once(config)), ++out.attempted;
  } else {
    timed_runs(opts.seconds / 2, false, &runs);
    timed_runs(opts.seconds / 2, true, &traced_runs);
  }

  // --- correctness -----------------------------------------------------------
  for (const auto& r : runs)
    out.check(r.digest == runs.front().digest,
              shape.name + ": result digest differs between identical runs");
  for (const auto& r : traced_runs)
    out.check(r.digest == runs.front().digest,
              shape.name + ": traced run computed a different result");
  check_bands(shape, *runs.front().result, levels, out);
  for (const auto& r : runs)
    if (r.result->total_admitted == 0 || r.events == 0) ++out.failed;

  // Simulated windows per second of wall time and per second of the
  // process's CPU time. ops_per_s is the latter: the lanes meet at an epoch
  // barrier, so a slice the hypervisor steals from any one vCPU, or a
  // program of another tenant scheduled there, stalls all of them, and the
  // wall-clock rate followed the host's steal (from 6.3 windows/s at 0.2%
  // steal to 4.5 at 13% on the tuning host); the CPU time counts only the
  // work done, whichever lane did it. The wall rate is sim.speed (x 0.1).
  const RunOutcome& first = runs.front();
  double wall = 0.0, cpu = 0.0;
  for (const auto& r : runs) wall += r.wall_s, cpu += r.cpu_s;
  const double windows = windows_per_run * static_cast<double>(runs.size());
  std::printf("%s: %.1f simulated windows in %.3f s wall, %.3f CPU s\n",
              shape.name.c_str(), windows, wall, cpu);

  if (!opts.trace) {
    out.put("setup_s", median(setup_s), "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.put("ops_per_s", windows / cpu, "1/s");
    return;
  }

  // --- per-layer (traced run) -------------------------------------------------
  const double p50_untraced = quantile(per_window_ms(runs), 0.5);
  const double p50_traced = quantile(per_window_ms(traced_runs), 0.5);
  out.put("trace.overhead_pct", (p50_traced / p50_untraced - 1.0) * 100.0, "%");
  out.put("sim.speed", windows / wall * sharegrid::to_seconds(config.window), "x");
  out.put("sim.events", static_cast<double>(first.events), "count");
  out.put("sim.ns_per_event",
          first.wall_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, first.events)),
          "ns");
  out.put("sim.epochs", static_cast<double>(first.epochs), "count");
  out.put("sim.cross_posts", static_cast<double>(first.cross_posts), "count");
  out.put("l4.admitted", static_cast<double>(first.l4_admitted), "count");
  out.put("l4.dropped", static_cast<double>(first.l4_dropped), "count");
  out.put("nodes.events_per_admitted",
          static_cast<double>(first.events) /
              static_cast<double>(std::max<std::uint64_t>(1, first.result->total_admitted)),
          "count");
  out.put("coord.windows", static_cast<double>(first.windows), "count");
  out.put("coord.spike_replans", static_cast<double>(first.spike_replans),
          "count");
  out.put("experiments.load_s", median(load_s), "s");
  out.put("experiments.build_s", median(build_s), "s");
  out.put("core.flow_ms", median(flow_ms), "ms");

  replay_windows(graph, levels, traced_runs.front().result->window_trace,
                 out);
  // Lane scaling on a short prefix of the same scenario: wall time at one
  // lane over wall time at one lane per core, node build excluded (it is
  // serial either way and already reported as experiments.build_s).
  ex::ScenarioConfig prefix = config;
  prefix.duration_sec = std::min(config.duration_sec, 1.0);
  prefix.sim_shards = 1;
  const RunOutcome serial = run_once(prefix);
  prefix.sim_shards = lanes();
  const RunOutcome parallel = run_once(prefix);
  out.check(serial.digest == parallel.digest,
            shape.name + ": result depends on the lane count");
  const double build = median(build_s);
  out.put("sim.lane_speedup",
          std::max(1e-3, serial.wall_s - build) /
              std::max(1e-3, parallel.wall_s - build),
          "x");
  // NAT table at the fleet's flow count: one live flow per client machine
  // of a cluster.
  const std::size_t flows = config.client_scale * config.clients.size();
  out.put("l4.flow_op_ns", probe_flow_op_ns(opts.seed, flows), "ns");
}

}  // namespace

void run_sim_fleet(const Options& opts, Result& result) {
  run_sim(fleet_shape(opts.seed), opts, result);
}

}  // namespace perfbench
