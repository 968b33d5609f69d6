// Unit tests for the INI reader and the scenario-file loader.
#include <gtest/gtest.h>

#include "experiments/scenario_ini.hpp"
#include "util/assert.hpp"
#include "util/ini.hpp"

namespace sharegrid {
namespace {

TEST(Ini, ParsesGlobalAndSections) {
  const IniDocument doc = parse_ini(
      "speed = 3.5\n"
      "# a comment\n"
      "[alpha]\n"
      "name = first ; trailing comment\n"
      "[beta]\n"
      "flag = true\n");
  EXPECT_DOUBLE_EQ(*doc.global.get_double("speed"), 3.5);
  ASSERT_EQ(doc.sections.size(), 2u);
  EXPECT_EQ(*doc.sections[0].get_string("name"), "first");
  EXPECT_TRUE(*doc.sections[1].get_bool("flag"));
}

TEST(Ini, RepeatedSectionsKeepOrder) {
  const IniDocument doc = parse_ini(
      "[client]\nname = a\n[client]\nname = b\n[other]\nx = 1\n");
  const auto clients = doc.all("client");
  ASSERT_EQ(clients.size(), 2u);
  EXPECT_EQ(*clients[0]->get_string("name"), "a");
  EXPECT_EQ(*clients[1]->get_string("name"), "b");
  EXPECT_NE(doc.unique("other"), nullptr);
  EXPECT_EQ(doc.unique("missing"), nullptr);
  EXPECT_THROW(doc.unique("client"), ContractViolation);
}

TEST(Ini, DoubleLists) {
  const IniDocument doc = parse_ini("values = 1, 2.5, -3\n");
  const auto list = *doc.global.get_double_list("values");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[1], 2.5);
  EXPECT_DOUBLE_EQ(list[2], -3.0);
}

TEST(Ini, MissingKeysAreNullopt) {
  const IniDocument doc = parse_ini("a = 1\n");
  EXPECT_FALSE(doc.global.get_double("b").has_value());
  EXPECT_FALSE(doc.global.get_string("b").has_value());
}

TEST(Ini, MalformedInputsThrowWithLineNumbers) {
  EXPECT_THROW(parse_ini("[unterminated\n"), ContractViolation);
  EXPECT_THROW(parse_ini("[]\n"), ContractViolation);
  EXPECT_THROW(parse_ini("no equals sign\n"), ContractViolation);
  EXPECT_THROW(parse_ini("= value-without-key\n"), ContractViolation);
  EXPECT_THROW(parse_ini("a = 1\na = 2\n"), ContractViolation);
  try {
    parse_ini("ok = 1\nbroken line\n");
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Ini, TypedGettersRejectGarbage) {
  const IniDocument doc = parse_ini("n = abc\nb = maybe\nl = 1,x\n");
  EXPECT_THROW(doc.global.get_double("n"), ContractViolation);
  EXPECT_THROW(doc.global.get_bool("b"), ContractViolation);
  EXPECT_THROW(doc.global.get_double_list("l"), ContractViolation);
}

TEST(Ini, RequireVariantsNameTheMissingKey) {
  const IniDocument doc = parse_ini("[server]\ncapacity = 320\n");
  try {
    doc.sections[0].require_string("owner");
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("owner"), std::string::npos);
  }
  EXPECT_DOUBLE_EQ(doc.sections[0].require_double("capacity"), 320.0);
}

// --- Scenario loading --------------------------------------------------------

constexpr const char* kMinimalScenario = R"ini(
layer = l4
scheduler = response_time
duration = 30
[principal]
name = A
[principal]
name = B
[agreement]
owner = B
user = A
lower = 0.5
upper = 0.5
[server]
owner = A
capacity = 320
[server]
owner = B
capacity = 320
[client]
name = C1
principal = A
redirector = 0
rate = 400
active = 0-10, 20-30
[phase]
name = p1
start = 1
end = 9
)ini";

TEST(ScenarioIni, BuildsFullConfig) {
  using namespace experiments;
  const ScenarioConfig config = scenario_from_ini(parse_ini(kMinimalScenario));
  EXPECT_EQ(config.layer, Layer::kL4);
  EXPECT_EQ(config.scheduler, SchedulerKind::kResponseTime);
  EXPECT_DOUBLE_EQ(config.duration_sec, 30.0);
  EXPECT_EQ(config.graph.size(), 2u);
  EXPECT_DOUBLE_EQ(config.graph.lower_bound(1, 0), 0.5);
  ASSERT_EQ(config.servers.size(), 2u);
  ASSERT_EQ(config.clients.size(), 1u);
  ASSERT_EQ(config.clients[0].active_sec.size(), 2u);
  EXPECT_DOUBLE_EQ(config.clients[0].active_sec[1].first, 20.0);
  ASSERT_EQ(config.phases.size(), 1u);
}

TEST(ScenarioIni, LoadedScenarioActuallyRuns) {
  using namespace experiments;
  const ScenarioConfig config = scenario_from_ini(parse_ini(kMinimalScenario));
  const ScenarioResult result = run_scenario(config);
  // A alone: its own 320 plus half of B's = 400-capped by the one client.
  EXPECT_NEAR(result.phase_served(0, 0), 400.0, 40.0);
}

TEST(ScenarioIni, RejectsUnknownEnumValues) {
  using namespace experiments;
  EXPECT_THROW(scenario_from_ini(parse_ini("layer = l5\n")),
               ContractViolation);
  EXPECT_THROW(scenario_from_ini(parse_ini("scheduler = fastest\n")),
               ContractViolation);
  EXPECT_THROW(scenario_from_ini(parse_ini("stale_policy = hopeful\n")),
               ContractViolation);
}

TEST(ScenarioIni, RejectsDanglingReferences) {
  using namespace experiments;
  const std::string bad_owner = std::string(kMinimalScenario) +
                                "[server]\nowner = nobody\ncapacity = 1\n";
  EXPECT_THROW(scenario_from_ini(parse_ini(bad_owner)), ContractViolation);

  const std::string bad_range =
      std::string(kMinimalScenario) +
      "[client]\nname = X\nprincipal = A\nrate = 1\nactive = 9-3\n";
  EXPECT_THROW(scenario_from_ini(parse_ini(bad_range)), ContractViolation);
}

TEST(ScenarioIni, RequiresCoreSections) {
  using namespace experiments;
  EXPECT_THROW(scenario_from_ini(parse_ini("duration = 5\n")),
               ContractViolation);
}

TEST(ScenarioIni, ControlPlaneSectionSetsCoordinationKnobs) {
  using namespace experiments;
  const std::string text = std::string(kMinimalScenario) +
                           "[control_plane]\n"
                           "tree_fanout = 2\n"
                           "snapshot_period_ms = 200\n"
                           "spike_replan_limit = 0.5\n";
  const ScenarioConfig config = scenario_from_ini(parse_ini(text));
  EXPECT_EQ(config.tree_fanout, 2u);
  EXPECT_EQ(config.tree_period, 200 * kMillisecond);
  EXPECT_DOUBLE_EQ(config.spike_replan_limit, 0.5);

  // Omitting the section keeps the defaults.
  const ScenarioConfig bare = scenario_from_ini(parse_ini(kMinimalScenario));
  EXPECT_EQ(bare.tree_fanout, 0u);
  EXPECT_EQ(bare.tree_period, 0);
  EXPECT_DOUBLE_EQ(bare.spike_replan_limit, 1.0);
}

TEST(ScenarioIni, ControlPlaneSectionValidatesRanges) {
  using namespace experiments;
  const auto with_section = [](const std::string& body) {
    return std::string(kMinimalScenario) + "[control_plane]\n" + body;
  };
  // A fanout of 1 would be a degenerate chain, not a combining tree.
  EXPECT_THROW(scenario_from_ini(parse_ini(with_section("tree_fanout = 1\n"))),
               ContractViolation);
  EXPECT_THROW(
      scenario_from_ini(parse_ini(with_section("snapshot_period_ms = 0\n"))),
      ContractViolation);
  EXPECT_THROW(
      scenario_from_ini(parse_ini(with_section("snapshot_period_ms = -5\n"))),
      ContractViolation);
  EXPECT_THROW(
      scenario_from_ini(parse_ini(with_section("spike_replan_limit = -1\n"))),
      ContractViolation);
  const std::string duplicated = with_section("tree_fanout = 2\n") +
                                 "[control_plane]\ntree_fanout = 4\n";
  EXPECT_THROW(scenario_from_ini(parse_ini(duplicated)), ContractViolation);
}

TEST(ScenarioIni, ControlPlaneMembershipKnobs) {
  using namespace experiments;
  const std::string text = std::string(kMinimalScenario) +
                           "[control_plane]\n"
                           "lease_ttl_ms = 250\n"
                           "reconnect_base_ms = 5\n"
                           "reconnect_max_ms = 80\n"
                           "election_enabled = false\n"
                           "allow_nonlocal = true\n";
  const ScenarioConfig config = scenario_from_ini(parse_ini(text));
  EXPECT_DOUBLE_EQ(config.lease_ttl_ms, 250.0);
  EXPECT_DOUBLE_EQ(config.reconnect_base_ms, 5.0);
  EXPECT_DOUBLE_EQ(config.reconnect_max_ms, 80.0);
  EXPECT_FALSE(config.election_enabled);
  EXPECT_TRUE(config.allow_nonlocal);

  // Defaults without the keys: loopback-only, election on, 500 ms TTL.
  const ScenarioConfig bare = scenario_from_ini(parse_ini(kMinimalScenario));
  EXPECT_DOUBLE_EQ(bare.lease_ttl_ms, 500.0);
  EXPECT_TRUE(bare.election_enabled);
  EXPECT_FALSE(bare.allow_nonlocal);

  const auto with_section = [](const std::string& body) {
    return std::string(kMinimalScenario) + "[control_plane]\n" + body;
  };
  EXPECT_THROW(
      scenario_from_ini(parse_ini(with_section("lease_ttl_ms = 0\n"))),
      ContractViolation);
  EXPECT_THROW(
      scenario_from_ini(parse_ini(with_section("reconnect_base_ms = 0\n"))),
      ContractViolation);
  // The backoff cap may not undercut the base.
  EXPECT_THROW(scenario_from_ini(parse_ini(with_section(
                   "reconnect_base_ms = 100\nreconnect_max_ms = 10\n"))),
               ContractViolation);
}

TEST(ScenarioIni, RejectsCountsThatAreNotNonNegativeIntegers) {
  using namespace experiments;
  const std::string base = kMinimalScenario;
  // Replaces the one occurrence of @p from in the base scenario.
  const auto edited = [&base](const std::string& from, const std::string& to) {
    std::string text = base;
    text.replace(text.find(from), from.size(), to);
    return text;
  };
  const std::string count = "must be a non-negative integer";
  // Times reach seconds() / milliseconds(), whose int64 cast is undefined
  // for NaN and out-of-range values.
  const std::string time = "must be a finite time";
  // Global keys go first: the global section ends at the first header.
  const struct {
    const char* key;
    std::string text;
    std::string message;
  } rows[] = {
      {"redirectors", "redirectors = -1\n" + base, count},
      {"redirectors", "redirectors = 2.7\n" + base, count},
      {"max_outstanding", "max_outstanding = -1\n" + base, count},
      {"seed", "seed = 1e30\n" + base, count},
      {"clusters", "clusters = 0.5\n" + base, count},
      {"sim_shards", "sim_shards = nan\n" + base, count},
      {"client_scale", "client_scale = inf\n" + base, count},
      {"duration", edited("duration = 30", "duration = inf"), time},
      {"duration", edited("duration = 30", "duration = -5"), time},
      {"window_ms", "window_ms = nan\n" + base, time},
      {"tree_link_delay", "tree_link_delay = inf\n" + base, time},
      {"tree_link_delay", "tree_link_delay = 1e13\n" + base, time},
      {"control_plane.snapshot_period_ms (line",
       base + "[control_plane]\nsnapshot_period_ms = inf\n", time},
      {"client.active (line",
       edited("active = 0-10, 20-30", "active = 0-inf"), time},
      {"client.active (line",
       edited("active = 0-10, 20-30", "active = nan-5"), time},
      {"phase.start (line", edited("start = 1", "start = -1"), time},
      {"phase.end (line", edited("end = 9", "end = inf"), time},
      {"capacity_event.time (line",
       base + "[capacity_event]\ntime = nan\nserver = 0\ncapacity = 10\n",
       time},
      {"client.redirector",
       base + "[client]\nname = X\nprincipal = A\nredirector = -1\n"
              "rate = 1\nactive = 0-1\n",
       count},
      {"capacity_event.server",
       base + "[capacity_event]\ntime = 1\nserver = -1\ncapacity = 10\n",
       count},
  };
  for (const auto& row : rows) {
    try {
      scenario_from_ini(parse_ini(row.text));
      ADD_FAILURE() << row.key << " was accepted";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("scenario: ", 0), 0u) << what;
      EXPECT_NE(what.find(row.key), std::string::npos) << what;
      EXPECT_NE(what.find(row.message), std::string::npos) << what;
    }
  }
  // An index past the declared redirectors is a loader error too, not a
  // precondition failure deep inside the run.
  EXPECT_THROW(
      scenario_from_ini(parse_ini(
          base + "[client]\nname = X\nprincipal = A\nredirector = 1\n"
                 "rate = 1\nactive = 0-1\n")),
      ContractViolation);
  // Whole values still load, with their meaning unchanged.
  const ScenarioConfig config = scenario_from_ini(
      parse_ini("redirectors = 2\nmax_outstanding = 0\nseed = 7\n" + base));
  EXPECT_EQ(config.redirector_count, 2u);
  EXPECT_EQ(config.max_outstanding, 0u);
  EXPECT_EQ(config.seed, 7u);
}

TEST(ScenarioIni, ProvidersKeyFailsNamingTheRemoval) {
  using namespace experiments;
  const std::string text =
      "provider = A\nproviders = A, B\n" + std::string(kMinimalScenario);
  try {
    scenario_from_ini(parse_ini(text));
    FAIL() << "a providers list must not load as a single-provider plan";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "multi-provider income planning was removed"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioIni, MissingFileThrows) {
  EXPECT_THROW(parse_ini_file("/nonexistent/path.ini"), ContractViolation);
}

}  // namespace
}  // namespace sharegrid
