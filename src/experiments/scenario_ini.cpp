#include "experiments/scenario_ini.hpp"

#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace sharegrid::experiments {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw ContractViolation("scenario: " + message);
}

/// Names setting @p key of @p section in an error: the bare key for a global
/// setting, "section.key (line N)" otherwise.
std::string where(const IniSection& section, const std::string& key) {
  return section.name.empty() ? key
                              : section.name + "." + key + " (line " +
                                    std::to_string(section.line) + ")";
}

/// Reads the optional integer setting @p key of @p section. A negative,
/// fractional or non-finite value, or one past 2^64, is a scenario error
/// rather than a silent cast.
std::optional<std::uint64_t> get_count(const IniSection& section,
                                       const std::string& key) {
  const auto value = section.get_double(key);
  if (!value) return std::nullopt;
  if (!(*value >= 0.0 && *value < 0x1p64) || *value != std::floor(*value))
    fail(where(section, key) + " must be a non-negative integer, got '" +
         *section.get_string(key) + "'");
  return static_cast<std::uint64_t>(*value);
}

/// Checks a time of @p value units of @p unit microseconds, written @p text
/// in the scenario. seconds() and milliseconds() cast to SimTime, which is
/// undefined for NaN and out-of-range values, so a time must be finite,
/// non-negative and under 2^62 microseconds (about 4.6e12 s, which leaves
/// room to add two of them).
double checked_time(double value, SimDuration unit, const std::string& name,
                    const std::string& text) {
  if (!(value >= 0.0 && value * static_cast<double>(unit) < 0x1p62))
    fail(name + " must be a finite time in [0, 4.6e12 s), got '" + text +
         "'");
  return value;
}

/// Reads the optional time setting @p key of @p section (see checked_time).
std::optional<double> get_time(const IniSection& section,
                               const std::string& key, SimDuration unit) {
  const auto value = section.get_double(key);
  if (!value) return std::nullopt;
  return checked_time(*value, unit, where(section, key),
                      *section.get_string(key));
}

/// Reads the required time setting @p key of @p section, in seconds.
double require_seconds(const IniSection& section, const std::string& key) {
  return checked_time(section.require_double(key), kSecond,
                      where(section, key), *section.get_string(key));
}

/// Parses @p section's "active = 0-125, 250-375" into second-ranges.
std::vector<std::pair<double, double>> parse_ranges(
    const IniSection& section) {
  const std::string text = section.require_string("active");
  std::vector<std::pair<double, double>> out;
  std::stringstream ss(text);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const std::size_t dash = token.find('-');
    if (dash == std::string::npos)
      fail("active range '" + token + "' must look like 'start-end'");
    double start = 0.0;
    double end = 0.0;
    try {
      start = std::stod(token.substr(0, dash));
      end = std::stod(token.substr(dash + 1));
    } catch (const std::exception&) {
      fail("active range '" + token + "' has non-numeric bounds");
    }
    checked_time(start, kSecond, where(section, "active"), token);
    checked_time(end, kSecond, where(section, "active"), token);
    if (end <= start) fail("active range '" + token + "' is empty");
    out.emplace_back(start, end);
  }
  if (out.empty()) fail("active range list is empty");
  return out;
}

}  // namespace

ScenarioConfig scenario_from_ini(const IniDocument& doc) {
  ScenarioConfig config;
  const IniSection& g = doc.global;

  // --- Global settings -----------------------------------------------------
  if (const auto layer = g.get_string("layer")) {
    if (*layer == "l4")
      config.layer = Layer::kL4;
    else if (*layer == "l7")
      config.layer = Layer::kL7;
    else
      fail("layer must be 'l4' or 'l7', got '" + *layer + "'");
  }
  if (const auto sched_kind = g.get_string("scheduler")) {
    if (*sched_kind == "response_time")
      config.scheduler = SchedulerKind::kResponseTime;
    else if (*sched_kind == "income")
      config.scheduler = SchedulerKind::kIncome;
    else
      fail("scheduler must be 'response_time' or 'income'");
  }
  if (const auto provider = g.get_string("provider"))
    config.provider = *provider;
  // Ignoring the key would quietly run a single-provider income plan.
  if (g.get_string("providers"))
    fail("providers: multi-provider income planning was removed; an income "
         "scenario names its one resource owner with 'provider'");
  config.duration_sec = get_time(g, "duration", kSecond).value_or(100.0);
  if (const auto window_ms = get_time(g, "window_ms", kMillisecond))
    config.window = milliseconds(*window_ms);
  if (const auto redirectors = get_count(g, "redirectors")) {
    if (*redirectors < 1) fail("redirectors must be >= 1");
    config.redirector_count = *redirectors;
  }
  if (const auto delay = get_time(g, "tree_link_delay", kSecond))
    config.tree_link_delay = seconds(*delay);
  // Cluster-partitioned mode: replicate the declared site `clusters` times,
  // one simulation domain each, run on `sim_shards` worker lanes;
  // `client_scale` multiplies every declared client machine (both modes).
  if (const auto clusters = get_count(g, "clusters"))
    config.clusters = *clusters;
  if (const auto shards = get_count(g, "sim_shards")) {
    if (*shards < 1) fail("sim_shards must be >= 1");
    config.sim_shards = *shards;
  }
  if (const auto scale = get_count(g, "client_scale")) {
    if (*scale < 1) fail("client_scale must be >= 1");
    config.client_scale = *scale;
  }
  if (const auto policy = g.get_string("stale_policy")) {
    if (*policy == "conservative")
      config.stale_policy = sched::StalePolicy::kConservative;
    else if (*policy == "optimistic")
      config.stale_policy = sched::StalePolicy::kOptimistic;
    else
      fail("stale_policy must be 'conservative' or 'optimistic'");
  }
  if (const auto mode = g.get_string("l7_mode")) {
    if (*mode == "credit")
      config.l7_mode = nodes::L7Redirector::Mode::kCreditBased;
    else if (*mode == "explicit")
      config.l7_mode = nodes::L7Redirector::Mode::kExplicitQueue;
    else
      fail("l7_mode must be 'credit' or 'explicit'");
  }
  if (const auto seed = get_count(g, "seed")) config.seed = *seed;
  if (const auto cap = get_count(g, "max_outstanding"))
    config.max_outstanding = *cap;
  if (const auto weighted = g.get_bool("weighted_admission"))
    config.weighted_admission = *weighted;

  // --- Control plane ---------------------------------------------------------
  // Optional [control_plane] section: coordination knobs for the unified
  // window loop (docs/control-plane.md).
  const auto cp_sections = doc.all("control_plane");
  if (cp_sections.size() > 1)
    fail("at most one [control_plane] section is allowed");
  if (!cp_sections.empty()) {
    const IniSection& cp = *cp_sections.front();
    if (const auto fanout = get_count(cp, "tree_fanout")) {
      if (*fanout == 1)
        fail("control_plane.tree_fanout must be 0 (star) or >= 2, got 1");
      config.tree_fanout = *fanout;
    }
    if (const auto period_ms =
            get_time(cp, "snapshot_period_ms", kMillisecond)) {
      if (!(*period_ms > 0.0))
        fail("control_plane.snapshot_period_ms must be > 0, got " +
             std::to_string(*period_ms));
      config.tree_period = milliseconds(*period_ms);
    }
    if (const auto limit = cp.get_double("spike_replan_limit")) {
      if (!std::isfinite(*limit) || *limit < 0.0)
        fail("control_plane.spike_replan_limit must be finite and >= 0, "
             "got " +
             std::to_string(*limit));
      config.spike_replan_limit = *limit;
    }
    if (const auto transport = cp.get_string("transport")) {
      if (*transport == "sim_tree")
        config.transport = ScenarioConfig::TransportKind::kSimTree;
      else if (*transport == "socket")
        config.transport = ScenarioConfig::TransportKind::kSocket;
      else
        fail("control_plane.transport must be 'sim_tree' or 'socket', got '" +
             *transport + "'");
    }
    // Comma-separated host:port list, index-aligned with the redirector
    // processes; entry 0 is the aggregation root.
    if (const auto peers = cp.get_string("peers")) {
      std::stringstream ss(*peers);
      std::string token;
      while (std::getline(ss, token, ',')) {
        const std::size_t first = token.find_first_not_of(" \t");
        if (first == std::string::npos) continue;
        const std::size_t last = token.find_last_not_of(" \t");
        const std::string peer = token.substr(first, last - first + 1);
        if (peer.find(':') == std::string::npos)
          fail("control_plane.peers entry '" + peer +
               "' must look like 'host:port'");
        config.socket_peers.push_back(peer);
      }
      if (config.socket_peers.empty()) fail("control_plane.peers is empty");
    }
    if (const auto ttl = cp.get_double("lease_ttl_ms")) {
      if (!std::isfinite(*ttl) || *ttl <= 0.0)
        fail("control_plane.lease_ttl_ms must be finite and > 0, got " +
             std::to_string(*ttl));
      config.lease_ttl_ms = *ttl;
    }
    if (const auto base = cp.get_double("reconnect_base_ms")) {
      if (!std::isfinite(*base) || *base <= 0.0)
        fail("control_plane.reconnect_base_ms must be finite and > 0, got " +
             std::to_string(*base));
      config.reconnect_base_ms = *base;
    }
    if (const auto cap = cp.get_double("reconnect_max_ms")) {
      if (!std::isfinite(*cap) || *cap <= 0.0)
        fail("control_plane.reconnect_max_ms must be finite and > 0, got " +
             std::to_string(*cap));
      config.reconnect_max_ms = *cap;
    }
    if (const auto elect = cp.get_bool("election_enabled"))
      config.election_enabled = *elect;
    if (const auto nonlocal = cp.get_bool("allow_nonlocal"))
      config.allow_nonlocal = *nonlocal;
  }
  if (config.reconnect_max_ms < config.reconnect_base_ms)
    fail("control_plane.reconnect_max_ms (" +
         std::to_string(config.reconnect_max_ms) +
         ") must be >= reconnect_base_ms (" +
         std::to_string(config.reconnect_base_ms) + ")");
  if (config.transport == ScenarioConfig::TransportKind::kSocket) {
    if (config.socket_peers.empty())
      fail("control_plane.transport = socket requires control_plane.peers");
    if (config.socket_peers.size() != config.redirector_count)
      fail("control_plane.peers lists " +
           std::to_string(config.socket_peers.size()) +
           " process(es) but redirectors = " +
           std::to_string(config.redirector_count) +
           "; the socket control plane runs one process per redirector");
  }

  // --- Principals + prices --------------------------------------------------
  const auto principals = doc.all("principal");
  if (principals.empty()) fail("at least one [principal] is required");
  bool any_locality = false;
  for (const IniSection* p : principals) {
    config.graph.add_principal(p->require_string("name"), 0.0);
    config.prices.push_back(p->get_double("price").value_or(0.0));
    const auto cap = p->get_double("locality_cap");
    config.locality_caps.push_back(cap.value_or(1e18));
    any_locality = any_locality || cap.has_value();
  }
  if (!any_locality) config.locality_caps.clear();

  auto principal_id = [&](const std::string& name,
                          const IniSection& where) -> core::PrincipalId {
    const core::PrincipalId id = config.graph.find(name);
    if (id == core::kNoPrincipal)
      fail("section [" + where.name + "] (line " +
           std::to_string(where.line) + ") references unknown principal '" +
           name + "'");
    return id;
  };
  // --- Agreements ------------------------------------------------------------
  for (const IniSection* a : doc.all("agreement")) {
    config.graph.set_agreement(principal_id(a->require_string("owner"), *a),
                               principal_id(a->require_string("user"), *a),
                               a->require_double("lower"),
                               a->require_double("upper"));
  }

  // --- Servers ---------------------------------------------------------------
  for (const IniSection* s : doc.all("server")) {
    const std::string owner = s->require_string("owner");
    principal_id(owner, *s);  // validate
    config.servers.push_back({owner, s->require_double("capacity")});
  }
  if (config.servers.empty()) fail("at least one [server] is required");

  // --- Clients ---------------------------------------------------------------
  for (const IniSection* c : doc.all("client")) {
    ClientSpec spec;
    spec.name = c->require_string("name");
    spec.principal = c->require_string("principal");
    principal_id(spec.principal, *c);
    spec.redirector = get_count(*c, "redirector").value_or(0);
    if (spec.redirector >= config.redirector_count)
      fail("client (line " + std::to_string(c->line) +
           ") dials redirector index " + std::to_string(spec.redirector) +
           " but redirectors = " + std::to_string(config.redirector_count));
    spec.rate = c->require_double("rate");
    spec.active_sec = parse_ranges(*c);
    config.clients.push_back(std::move(spec));
  }
  if (config.clients.empty()) fail("at least one [client] is required");

  // --- Phases ------------------------------------------------------------------
  for (const IniSection* p : doc.all("phase")) {
    config.phases.push_back({p->require_string("name"),
                             require_seconds(*p, "start"),
                             require_seconds(*p, "end")});
  }

  // --- Capacity events -----------------------------------------------------
  for (const IniSection* e : doc.all("capacity_event")) {
    CapacityEvent event;
    event.time_sec = require_seconds(*e, "time");
    e->require_string("server");  // names the section when missing
    event.server = *get_count(*e, "server");
    event.capacity = e->require_double("capacity");
    if (event.server >= config.servers.size())
      fail("capacity_event (line " + std::to_string(e->line) +
           ") references server index " + std::to_string(event.server) +
           " but only " + std::to_string(config.servers.size()) +
           " servers are declared");
    config.capacity_events.push_back(event);
  }

  return config;
}

ScenarioConfig load_scenario_file(const std::string& path) {
  return scenario_from_ini(parse_ini_file(path));
}

}  // namespace sharegrid::experiments
