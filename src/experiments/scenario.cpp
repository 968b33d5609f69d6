// Scenario runners. Both build the same unit, a Site (the paper's testbed
// site, §5): the classic runner one on a Simulator, the cluster-partitioned
// runner one per ShardedSimulator domain (DESIGN.md D13). One fold()
// reports both.
#include "experiments/scenario.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "coord/combining_tree.hpp"
#include "coord/control_plane.hpp"
#include "coord/sharded_transport.hpp"
#include "coord/window_driver.hpp"
#include "core/flow.hpp"
#include "nodes/client.hpp"
#include "nodes/l4_redirector.hpp"
#include "nodes/server.hpp"
#include "sched/income_scheduler.hpp"
#include "sched/response_time_scheduler.hpp"
#include "sched/swappable_scheduler.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/metrics_registry.hpp"
#include "util/names.hpp"
#include "util/rng.hpp"

namespace sharegrid::experiments {

core::PrincipalId resolve_principal(const core::AgreementGraph& graph,
                                    const std::string& name) {
  const core::PrincipalId id = graph.find(name);
  SHAREGRID_EXPECTS(id != core::kNoPrincipal);
  return id;
}

std::unique_ptr<sched::Scheduler> build_scheduler(
    const ScenarioConfig& config, const core::AgreementGraph& graph) {
  const std::size_t n = graph.size();
  const core::AccessLevels levels = core::compute_access_levels(graph);
  if (config.scheduler == SchedulerKind::kResponseTime) {
    sched::ResponseTimeOptions options;
    if (!config.locality_caps.empty()) {
      SHAREGRID_EXPECTS(config.locality_caps.size() == n);
      options.locality_caps = config.locality_caps;
    }
    return std::make_unique<sched::ResponseTimeScheduler>(graph, levels,
                                                          options);
  }
  SHAREGRID_EXPECTS(config.prices.size() == n);
  return std::make_unique<sched::IncomeScheduler>(
      graph, levels, resolve_principal(graph, config.provider), config.prices);
}

double ScenarioResult::phase_served(std::size_t phase,
                                    std::size_t principal) const {
  SHAREGRID_EXPECTS(phase < phase_reports.size());
  SHAREGRID_EXPECTS(principal < phase_reports[phase].served_rate.size());
  return phase_reports[phase].served_rate[principal];
}

TextTable ScenarioResult::series_table(SimDuration bin) const {
  std::vector<std::string> headers{"time_s"};
  for (const auto& name : principal_names) headers.push_back(name + "_req_s");
  TextTable table(std::move(headers));

  std::size_t bins = 0;
  for (std::size_t p = 0; p < principal_names.size(); ++p)
    bins = std::max(bins, metrics.served(p).bin_count());
  for (std::size_t b = 0; b < bins; ++b) {
    std::vector<std::string> row;
    row.push_back(TextTable::num(
        to_seconds(static_cast<SimTime>(b) * bin), 0));
    for (std::size_t p = 0; p < principal_names.size(); ++p)
      row.push_back(TextTable::num(metrics.served(p).rate_in_bin(b)));
    table.add_row(std::move(row));
  }
  return table;
}

TextTable ScenarioResult::phase_table() const {
  std::vector<std::string> headers{"phase", "interval_s"};
  for (const auto& name : principal_names) {
    headers.push_back(name + "_served");
    headers.push_back(name + "_offered");
  }
  TextTable table(std::move(headers));
  for (const auto& report : phase_reports) {
    std::vector<std::string> row{
        report.name, TextTable::num(report.start_sec, 0) + "-" +
                         TextTable::num(report.end_sec, 0)};
    for (std::size_t p = 0; p < principal_names.size(); ++p) {
      row.push_back(TextTable::num(report.served_rate[p]));
      row.push_back(TextTable::num(report.offered_rate[p]));
    }
    table.add_row(std::move(row));
  }
  return table;
}

namespace {

/// One site of the paper's testbed (§5): server machines, the redirectors
/// fronting them with their control plane, and the client machines dialling
/// them, all in one simulation domain with its own Metrics hub. The classic
/// runner builds one site; the clustered runner (DESIGN.md D13) builds one
/// per ShardedSimulator domain, so sites share no mutable state and the
/// worker lanes never contend.
struct Site {
  Site(sim::Simulator* domain, std::size_t principal_count)
      : sim(domain), metrics(principal_count) {}

  sim::Simulator* sim;
  std::unique_ptr<sched::SwappableScheduler> scheduler;
  nodes::Metrics metrics;
  std::vector<std::unique_ptr<nodes::Server>> servers;
  nodes::ServerPool pool;
  std::unique_ptr<coord::ControlPlane> plane;
  nodes::WindowTrace trace;
  std::vector<std::unique_ptr<nodes::L7Redirector>> l7s;
  std::vector<std::unique_ptr<nodes::L4Redirector>> l4s;
  std::vector<nodes::RedirectorBase*> redirectors;
  std::unique_ptr<coord::SimWindowDriver> driver;
  std::vector<std::unique_ptr<nodes::ClientMachine>> clients;
  RunningStats backlog;
  std::unique_ptr<sim::PeriodicTask> backlog_probe;
};

/// The agreement graph with capacities from the declared machines. Every
/// one of @p sites hosts a copy of them, so each owner's capacity is the
/// declared sum times the site count, and a 1/sites plan slice matches one
/// site's local hardware.
core::AgreementGraph site_graph(const ScenarioConfig& config,
                                std::size_t sites) {
  core::AgreementGraph graph = config.graph;
  for (core::PrincipalId p = 0; p < graph.size(); ++p)
    graph.set_capacity(p, 0.0);
  for (const auto& spec : config.servers) {
    const core::PrincipalId owner = resolve_principal(graph, spec.owner);
    graph.set_capacity(owner, graph.capacity(owner) +
                                  spec.capacity * static_cast<double>(sites));
  }
  return graph;
}

/// Nodes phase of site @p index out of @p sites: scheduler, servers, control
/// plane and redirectors. No events are created yet; the snapshot transport
/// starts between this phase and start_site().
std::unique_ptr<Site> build_site_nodes(sim::Simulator* sim,
                                       const ScenarioConfig& config,
                                       const core::AgreementGraph& graph,
                                       std::size_t index, std::size_t sites) {
  auto site = std::make_unique<Site>(sim, graph.size());
  site->scheduler = std::make_unique<sched::SwappableScheduler>(
      build_scheduler(config, graph));
  for (std::size_t s = 0; s < config.servers.size(); ++s) {
    nodes::Server::Config sc;
    sc.owner = resolve_principal(graph, config.servers[s].owner);
    sc.capacity = config.servers[s].capacity;
    sc.endpoint = {0x14000000u + (static_cast<std::uint32_t>(index) << 12) +
                       static_cast<std::uint32_t>(s),
                   80};
    site->servers.push_back(
        std::make_unique<nodes::Server>(sim, &site->metrics, sc));
    site->pool.add(site->servers.back().get());
  }

  // One ControlPlane owns the site's window loop (DESIGN.md D10); each
  // redirector node is a thin packet/HTTP shell around one of its members.
  // Members slice the GLOBAL plan over every redirector of every site.
  coord::ControlPlaneConfig cp_config;
  cp_config.window = config.window;
  cp_config.redirector_count = sites * config.redirector_count;
  cp_config.stale_policy = config.stale_policy;
  cp_config.spike_replan_limit = config.spike_replan_limit;
  nodes::Metrics* metrics = &site->metrics;
  cp_config.on_spike_replan = [metrics] { metrics->on_spike_replan(); };
  cp_config.on_replan_suppressed = [metrics] {
    metrics->on_replan_suppressed();
  };
  site->plane = std::make_unique<coord::ControlPlane>(site->scheduler.get(),
                                                      cp_config);

  nodes::WindowTrace* trace = config.trace_windows ? &site->trace : nullptr;
  for (std::size_t r = 0; r < config.redirector_count; ++r) {
    // Trace rows are keyed by these names: a classic site numbers its
    // redirectors, a cluster's one redirector carries the cluster number.
    const bool l7 = config.layer == Layer::kL7;
    const std::string name =
        config.clusters > 0 ? util::numbered(l7 ? "l7-c" : "l4-c", index)
                            : util::numbered(l7 ? "l7-" : "l4-", r);
    coord::ControlPlane::Member* member = site->plane->add_member();
    if (l7) {
      nodes::L7Redirector::Config rc;
      rc.name = name;
      rc.mode = config.l7_mode;
      rc.weighted_admission = config.weighted_admission;
      rc.trace = trace;
      site->l7s.push_back(std::make_unique<nodes::L7Redirector>(
          sim, &site->metrics, &site->pool, member, rc));
      site->redirectors.push_back(site->l7s.back().get());
    } else {
      nodes::L4Redirector::Config rc;
      rc.name = name;
      rc.weighted_admission = config.weighted_admission;
      rc.trace = trace;
      site->l4s.push_back(std::make_unique<nodes::L4Redirector>(
          sim, &site->metrics, &site->pool, member, rc));
      site->redirectors.push_back(site->l4s.back().get());
    }
  }
  return site;
}

/// Clients phase: the window driver, then every declared client machine
/// replicated `client_scale` times with its activity schedule. Runs after
/// the snapshot transport started, because task creation order is
/// load-bearing (D4): the snapshot task must exist before the window tasks
/// so equal-time events fire in the historical order. Each machine draws
/// its own stream split from @p rng, keeping runs deterministic regardless
/// of event interleaving.
void start_site(Site& site, const ScenarioConfig& config,
                const core::AgreementGraph& graph, Rng& rng,
                const workload::ReplySizeDistribution* reply_sizes) {
  site.driver =
      std::make_unique<coord::SimWindowDriver>(site.sim, site.plane.get());
  site.driver->start(config.window);
  for (const ClientSpec& spec : config.clients) {
    SHAREGRID_EXPECTS(spec.redirector < site.redirectors.size());
    const core::PrincipalId principal =
        resolve_principal(graph, spec.principal);
    for (std::size_t rep = 0; rep < config.client_scale; ++rep) {
      nodes::ClientMachine::Config cc;
      cc.principal = principal;
      cc.index = site.clients.size();
      cc.rate = spec.rate;
      cc.max_outstanding = config.max_outstanding;
      cc.weighted_requests = config.weighted_admission;
      site.clients.push_back(std::make_unique<nodes::ClientMachine>(
          site.sim, &site.metrics, site.redirectors[spec.redirector], cc,
          rng.split(), reply_sizes));
      nodes::ClientMachine* machine = site.clients.back().get();
      for (const auto& [start, end] : spec.active_sec) {
        SHAREGRID_EXPECTS(end > start);
        site.sim->schedule_at(seconds(start),
                              [machine] { machine->set_active(true); });
        site.sim->schedule_at(seconds(end),
                              [machine] { machine->set_active(false); });
      }
    }
  }
}

/// Samples the site's worst per-server backlog every 500 ms — the overload
/// signal. Armed last in the site's domain.
void arm_backlog_probe(Site& site) {
  site.backlog_probe = std::make_unique<sim::PeriodicTask>(
      site.sim, 500 * kMillisecond, 500 * kMillisecond, [&site] {
        double worst = 0.0;
        for (const auto& s : site.servers)
          worst = std::max(worst, s->backlog_seconds());
        site.backlog.add(worst);
      });
}

/// Folds the sites into one report in site index order. The fixed order
/// keeps the floating-point latency combination (and so the whole result)
/// reproducible and shard-count-invariant; for a single site every merge is
/// an exact copy.
ScenarioResult fold(std::vector<std::unique_ptr<Site>>& sites,
                    const ScenarioConfig& config,
                    const core::AgreementGraph& graph,
                    std::uint64_t coordination_messages) {
  const std::size_t n = graph.size();
  ScenarioResult result{.principal_names = {},
                        .metrics = nodes::Metrics(n),
                        .phase_reports = {},
                        .total_admitted = 0,
                        .total_rejected_or_queued = 0,
                        .coordination_messages = coordination_messages,
                        .server_backlog_sec = {},
                        .window_trace = nodes::WindowTrace()};
  for (const auto& site : sites) {
    result.metrics.merge_from(site->metrics);
    result.server_backlog_sec.merge_from(site->backlog);
    result.window_trace.merge_from(std::move(site->trace));
    for (const auto& l7 : site->l7s) {
      result.total_admitted += l7->admitted();
      result.total_rejected_or_queued += l7->self_redirects();
    }
    for (const auto& l4 : site->l4s) {
      result.total_admitted += l4->admitted();
      for (core::PrincipalId p = 0; p < n; ++p)
        result.total_rejected_or_queued += l4->queue_length(p);
    }
  }
  for (core::PrincipalId p = 0; p < n; ++p)
    result.principal_names.push_back(graph.name(p));
  for (const auto& phase : config.phases) {
    PhaseReport report;
    report.name = phase.name;
    report.start_sec = phase.start_sec;
    report.end_sec = phase.end_sec;
    for (core::PrincipalId p = 0; p < n; ++p) {
      report.served_rate.push_back(result.metrics.served(p).average_rate(
          seconds(phase.start_sec), seconds(phase.end_sec)));
      report.offered_rate.push_back(result.metrics.offered(p).average_rate(
          seconds(phase.start_sec), seconds(phase.end_sec)));
    }
    result.phase_reports.push_back(std::move(report));
  }
  return result;
}

/// Cluster-partitioned runner (DESIGN.md D13): `clusters` copies of the
/// declared site, one per domain of a conservatively synchronized
/// ShardedSimulator. The ONLY cross-domain traffic is the star snapshot
/// exchange, whose one-way link delay doubles as the engine's lookahead.
/// Results are bitwise-invariant to `sim_shards`; SHAREGRID_AUDIT builds
/// prove it per run by re-running serially.
ScenarioResult run_clustered_scenario(const ScenarioConfig& config) {
  SHAREGRID_EXPECTS(config.sim_shards >= 1);
  // The partitioning contract: one L4 redirector per cluster, a star
  // exchange whose link delay is the lookahead, and no mid-run capacity
  // rewires (those would need their own cross-domain channel).
  SHAREGRID_EXPECTS(config.layer == Layer::kL4);
  SHAREGRID_EXPECTS(config.redirector_count == 1);
  SHAREGRID_EXPECTS(config.tree_link_delay > 0);
  SHAREGRID_EXPECTS(config.tree_fanout == 0);
  SHAREGRID_EXPECTS(config.capacity_events.empty());

  util::global_metrics().reset();
  const core::AgreementGraph graph = site_graph(config, config.clusters);
  sim::ShardedSimulator::Options engine;
  engine.lookahead = config.tree_link_delay;
  engine.shards = config.sim_shards;
  sim::ShardedSimulator sharded(config.clusters, engine);
  Rng master(config.seed);
  const workload::ReplySizeDistribution reply_sizes;  // immutable, shared
  std::vector<std::unique_ptr<Site>> sites;
  for (std::size_t c = 0; c < config.clusters; ++c)
    sites.push_back(
        build_site_nodes(&sharded.domain(c), config, graph, c, config.clusters));

  // The star exchange across clusters: one sampling task per domain.
  coord::ShardedStarTransport::Options star_options;
  star_options.period =
      config.tree_period > 0 ? config.tree_period : config.window;
  star_options.link_delay = config.tree_link_delay;
  star_options.first_round = config.window / 2;
  coord::ShardedStarTransport star(&sharded, graph.size(), star_options);
  for (std::size_t c = 0; c < config.clusters; ++c) {
    coord::ControlPlane::Member* member = sites[c]->plane->member(0);
    star.attach(
        c, [member] { return member->local_demand(); },
        [member](std::uint64_t round, const std::vector<double>& aggregate) {
          member->receive_global(round, aggregate);
        });
  }
  star.start();

  // RNG streams split per cluster first, then per machine, so every
  // cluster's workload is an independent deterministic stream whatever the
  // lane assignment.
  for (const auto& site : sites) {
    Rng cluster_rng = master.split();
    start_site(*site, config, graph, cluster_rng, &reply_sizes);
    arm_backlog_probe(*site);
  }
  sharded.run_until(seconds(config.duration_sec));
  ScenarioResult result = fold(sites, config, graph, star.messages_sent());

  // Serial-as-oracle: in audit builds every parallel run re-runs with one
  // lane and must match bitwise. The rerun has sim_shards == 1, so it does
  // not recurse.
  if (config.sim_shards > 1) {
    SHAREGRID_AUDIT_HOOK([&] {
      ScenarioConfig oracle = config;
      oracle.sim_shards = 1;
      audit::audit_shard_merge_match(result, run_clustered_scenario(oracle));
    }());
  }
  return result;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& config) {
  if (config.transport == ScenarioConfig::TransportKind::kSocket)
    throw ContractViolation(
        "scenario: control_plane.transport = socket describes a "
        "multi-process deployment (one OS process per redirector over "
        "loopback TCP) and cannot run under the simulator — drive it with "
        "examples/multi_process_demo, or use transport = sim_tree here");
  SHAREGRID_EXPECTS(!config.servers.empty());
  SHAREGRID_EXPECTS(!config.clients.empty());
  SHAREGRID_EXPECTS(config.redirector_count >= 1);
  SHAREGRID_EXPECTS(config.client_scale >= 1);
  SHAREGRID_EXPECTS(config.duration_sec > 0.0);
  if (config.clusters > 0) return run_clustered_scenario(config);

  // Always-on telemetry is reported per run: zero the process-wide registry
  // so the totals printed afterwards cover exactly this scenario.
  util::global_metrics().reset();
  core::AgreementGraph graph = site_graph(config, 1);
  sim::Simulator sim;
  Rng master(config.seed);
  const workload::ReplySizeDistribution reply_sizes;
  std::vector<std::unique_ptr<Site>> sites;
  sites.push_back(build_site_nodes(&sim, config, graph, 0, 1));
  Site& site = *sites.front();

  // Redirectors hang as leaves off a virtual root so every one of them sees
  // the same aggregate lag of 2 * link_delay. Aggregation rounds interleave
  // halfway between scheduling windows so a zero-delay tree still feeds each
  // window the freshest possible snapshot.
  coord::CombiningTree::Options tree_options;
  tree_options.period =
      config.tree_period > 0 ? config.tree_period : config.window;
  tree_options.link_delay = config.tree_link_delay;
  tree_options.fanout = config.tree_fanout;
  tree_options.first_round = config.window / 2;
  coord::CombiningTree transport(&sim, config.redirector_count, graph.size(),
                                 tree_options);
  site.plane->connect(&transport);
  transport.start();
  start_site(site, config, graph, master, &reply_sizes);

  for (const CapacityEvent& event : config.capacity_events) {
    SHAREGRID_EXPECTS(event.server < site.servers.size());
    SHAREGRID_EXPECTS(event.capacity > 0.0);
    SHAREGRID_EXPECTS(event.time_sec >= 0.0);
    sim.schedule_at(seconds(event.time_sec), [&, event] {
      nodes::Server* machine = site.servers[event.server].get();
      const core::PrincipalId owner = machine->config().owner;
      // Shift the owner's aggregate capacity by the machine's delta, then
      // rebuild the flow analysis + scheduler against the new graph
      // (agreements are interpreted dynamically, §2.2).
      const double delta = event.capacity - machine->config().capacity;
      machine->set_capacity(event.capacity);
      graph.set_capacity(owner, std::max(0.0, graph.capacity(owner) + delta));
      site.scheduler->replace(build_scheduler(config, graph));
    });
  }
  arm_backlog_probe(site);
  sim.run_until(seconds(config.duration_sec));
  return fold(sites, config, graph, transport.messages_sent());
}

}  // namespace sharegrid::experiments
