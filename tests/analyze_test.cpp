// Tests for the sharegrid_analyze rule library (tools/analyze/): every rule
// gets one passing and one firing fixture, plus regressions for the
// comment/literal stripper, the baseline workflow, and the JSON renderer.
// Fixtures are in-memory SourceFiles — no filesystem involved — so each
// case pins exactly one behaviour of the analyzer.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/include_graph.hpp"

namespace sharegrid::analyze {
namespace {

/// Runs the full analyzer over @p files and returns the violations that
/// match @p rule ("" = all).
std::vector<Violation> violations_of(const std::vector<SourceFile>& files,
                                     const std::string& rule = "") {
  const Report report = analyze(files);
  std::vector<Violation> out;
  for (const Violation& v : report.violations)
    if (rule.empty() || v.rule == rule) out.push_back(v);
  return out;
}

/// A minimal clean header body; fixtures append the line under test.
SourceFile header(const std::string& path, const std::string& body) {
  return {path, "#pragma once\n" + body + "\n"};
}

// ---------------------------------------------------------------------------
// Comment/literal stripper (satellite: raw strings + spliced comments)

TEST(AnalyzeStrip, BlanksLineAndBlockComments) {
  const auto lines = strip_comments_and_literals(
      "int a; // assert(x)\nint /* abort() */ b;\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("assert"), std::string::npos);
  EXPECT_EQ(lines[1].find("abort"), std::string::npos);
  EXPECT_NE(lines[0].find("int a;"), std::string::npos);
  EXPECT_NE(lines[1].find("b;"), std::string::npos);
}

TEST(AnalyzeStrip, BlanksStringAndCharLiteralContents) {
  const auto lines =
      strip_comments_and_literals("f(\"assert(1)\", '\\'', \"\\\"abort()\");");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0].find("assert"), std::string::npos);
  EXPECT_EQ(lines[0].find("abort"), std::string::npos);
}

TEST(AnalyzeStrip, RawStringContentsAreBlankedToTheRealTerminator) {
  // A naive '"'-scan would end the literal at the inner quote and leak
  // `assert(x);` into the code stream.
  const auto lines = strip_comments_and_literals(
      "auto s = R\"sg(quote \" then assert(x);)sg\";\nassert(y);\n");
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("assert"), std::string::npos);
  EXPECT_NE(lines[1].find("assert(y);"), std::string::npos);
}

TEST(AnalyzeStrip, RawStringEncodingPrefixesAreRecognised) {
  const auto lines = strip_comments_and_literals(
      "auto s = u8R\"(assert(a))\"; auto t = LR\"(abort())\";");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0].find("assert"), std::string::npos);
  EXPECT_EQ(lines[0].find("abort"), std::string::npos);
}

TEST(AnalyzeStrip, MultiLineRawStringKeepsLineNumbering) {
  const auto lines = strip_comments_and_literals(
      "auto s = R\"(line one assert(x)\nline two abort()\n)\";\nint z;\n");
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[0].find("assert"), std::string::npos);
  EXPECT_EQ(lines[1].find("abort"), std::string::npos);
  EXPECT_NE(lines[3].find("int z;"), std::string::npos);
}

TEST(AnalyzeStrip, SplicedLineCommentContinuesOntoNextPhysicalLine) {
  // The backslash-newline splice makes the second physical line part of the
  // comment; scanning it as code would flag the assert.
  const auto lines = strip_comments_and_literals(
      "// a comment that continues \\\nassert(x);\nassert(y);\n");
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[1].find("assert"), std::string::npos);
  EXPECT_NE(lines[2].find("assert(y);"), std::string::npos);
}

TEST(AnalyzeStrip, IdentifierEndingInRIsNotARawStringOpener) {
  const auto lines =
      strip_comments_and_literals("LOG_ERROR(\"abort() happened\");");
  ASSERT_FALSE(lines.empty());
  // The literal is a plain string: its contents are blanked normally...
  EXPECT_EQ(lines[0].find("abort"), std::string::npos);
  // ...and the statement's closing tokens survive (a raw-string
  // misparse would swallow the rest of the line looking for )delim").
  EXPECT_NE(lines[0].find(");"), std::string::npos);
}

TEST(AnalyzeCanonicalPath, TakesComponentsAfterLastSrc) {
  EXPECT_EQ(canonical_path("/root/repo/src/net/tcp.hpp"), "net/tcp.hpp");
  EXPECT_EQ(canonical_path("src/util/time.hpp"), "util/time.hpp");
  EXPECT_EQ(canonical_path("sched/a.hpp"), "sched/a.hpp");  // fixture form
}

// ---------------------------------------------------------------------------
// Ported per-line rules

TEST(AnalyzeRules, NoRawAssertFiresOnAssertCall) {
  const auto v =
      violations_of({header("core/a.hpp", "void f() { assert(1); }")},
                    "no-raw-assert");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 2u);
  EXPECT_NE(v[0].message.find("ContractViolation"), std::string::npos);
}

TEST(AnalyzeRules, NoRawAssertPassesOnContractMacroAndComment) {
  EXPECT_TRUE(violations_of({header("core/a.hpp",
                                    "void f() { SHAREGRID_EXPECTS(1); }\n"
                                    "// assert(1) in a comment is fine")},
                            "no-raw-assert")
                  .empty());
}

TEST(AnalyzeRules, NoStdoutFiresAndInlineAllowSuppresses) {
  EXPECT_EQ(violations_of({header("core/a.hpp", "void f() { std::cout << 1; }")},
                          "no-stdout")
                .size(),
            1u);
  EXPECT_TRUE(
      violations_of(
          {header("core/a.hpp",
                  "void f() { std::cout << 1; }  "
                  "// sharegrid-analyze: allow(no-stdout)")},
          "no-stdout")
          .empty());
  // The historical sharegrid-lint spelling keeps working.
  EXPECT_TRUE(violations_of({header("core/a.hpp",
                                    "void f() { std::cout << 1; }  "
                                    "// sharegrid-lint: allow(no-stdout)")},
                            "no-stdout")
                  .empty());
}

TEST(AnalyzeRules, NoRawRngFiresOnRandPassesOnRng) {
  EXPECT_EQ(violations_of({header("sim/a.hpp", "int f() { return rand(); }")},
                          "no-raw-rng")
                .size(),
            1u);
  EXPECT_TRUE(violations_of({header("sim/a.hpp",
                                    "int f(Rng& rng) { return rng.next(); }")},
                            "no-raw-rng")
                  .empty());
}

TEST(AnalyzeRules, PragmaOnceFiresOnHeaderWithoutGuard) {
  const auto v = violations_of({{"core/a.hpp", "int x;\n"}}, "pragma-once");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 1u);
  // .cpp files need no guard.
  EXPECT_TRUE(violations_of({{"core/a.cpp", "int x;\n"}}, "pragma-once").empty());
}

TEST(AnalyzeRules, CoordOwnsWindowsFiresOutsideCoordPassesInside) {
  const std::string decl = "class X { WindowScheduler sched_; };";
  EXPECT_EQ(violations_of({header("live/a.hpp", decl)}, "coord-owns-windows")
                .size(),
            1u);
  EXPECT_TRUE(violations_of({header("coord/a.hpp", decl)}, "coord-owns-windows")
                  .empty());
  // References don't own.
  EXPECT_TRUE(violations_of({header("live/a.hpp",
                                    "class X { WindowScheduler& sched_; };")},
                            "coord-owns-windows")
                  .empty());
}

TEST(AnalyzeRules, WarningsLinkedFiresOnUnlinkedCompiledTarget) {
  const auto fire = violations_of(
      {{"src/foo/CMakeLists.txt",
        "add_executable(foo foo.cpp)\ntarget_link_libraries(foo PRIVATE bar)\n"}},
      "warnings-linked");
  ASSERT_EQ(fire.size(), 1u);
  EXPECT_NE(fire[0].message.find("sharegrid_warnings"), std::string::npos);
  EXPECT_TRUE(
      violations_of(
          {{"src/foo/CMakeLists.txt",
            "add_executable(foo foo.cpp)\n"
            "target_link_libraries(foo PRIVATE sharegrid_warnings)\n"}},
          "warnings-linked")
          .empty());
  // Header-only targets compile nothing and are exempt.
  EXPECT_TRUE(violations_of({{"src/foo/CMakeLists.txt",
                              "add_library(foo INTERFACE)\n"}},
                            "warnings-linked")
                  .empty());
}

// ---------------------------------------------------------------------------
// New rules

TEST(AnalyzeRules, NoUnorderedIterationFiresOnUnorderedMapPassesOnMap) {
  const auto v = violations_of(
      {header("core/a.hpp", "std::unordered_map<int, int> m_;")},
      "no-unordered-iteration");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].message.find("hash order"), std::string::npos);
  EXPECT_TRUE(violations_of({header("core/a.hpp", "std::map<int, int> m_;")},
                            "no-unordered-iteration")
                  .empty());
}

TEST(AnalyzeRules, NoWallClockFiresOutsideLive) {
  const auto v = violations_of(
      {header("sched/a.hpp",
              "auto t() { return std::chrono::steady_clock::now(); }")},
      "no-wall-clock");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].message.find("SimTime"), std::string::npos);
}

TEST(AnalyzeRules, NoWallClockExemptsLiveAndUtilTime) {
  const std::string body =
      "auto t() { return std::chrono::steady_clock::now(); }";
  EXPECT_TRUE(violations_of({header("live/a.hpp", body)}, "no-wall-clock")
                  .empty());
  EXPECT_TRUE(
      violations_of({header("/root/repo/src/util/time.hpp", body)},
                    "no-wall-clock")
          .empty());
}

TEST(AnalyzeRules, SansIoFiresOnIoIncludesInTheRoundProtocol) {
  const auto v = violations_of(
      {header("coord/round_protocol.hpp",
              "#include \"net/tcp.hpp\"\n#include <chrono>")},
      "sans-io");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NE(v[0].message.find("net/tcp.hpp"), std::string::npos);
  EXPECT_NE(v[1].message.find("<chrono>"), std::string::npos);
  // The pure includes pass, and the rule binds only the protocol files.
  EXPECT_TRUE(violations_of({header("coord/round_protocol.cpp",
                                    "#include \"coord/snapshot_wire.hpp\"\n"
                                    "#include <vector>")},
                            "sans-io")
                  .empty());
  EXPECT_TRUE(violations_of({header("coord/socket_transport.hpp",
                                    "#include \"net/tcp.hpp\"\n"
                                    "#include <mutex>")},
                            "sans-io")
                  .empty());
}

TEST(AnalyzeRules, CoordSingleThreadedFiresOnThreadIncludesInCoord) {
  const auto v = violations_of(
      {header("coord/session_manager.hpp",
              "#include <thread>\n#include <mutex>\n#include <atomic>\n"
              "#include \"util/thread_annotations.hpp\"\n#include <vector>")},
      "single-threaded");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_NE(v[0].message.find("<thread>"), std::string::npos);
  EXPECT_NE(v[1].message.find("<mutex>"), std::string::npos);
  EXPECT_NE(v[2].message.find("<atomic>"), std::string::npos);
  EXPECT_NE(v[3].message.find("thread_annotations.hpp"), std::string::npos);
  EXPECT_EQ(v[3].line, 5u);  // header() puts #pragma once on line 1
  // The ban covers every coord file, and not the live layer.
  EXPECT_EQ(violations_of({header("coord/round_protocol.cpp",
                                  "#include <mutex>")},
                          "single-threaded")
                .size(),
            1u);
  EXPECT_TRUE(violations_of({header("live/event_loop.hpp",
                                    "#include <thread>\n#include <atomic>")},
                            "single-threaded")
                  .empty());
}

TEST(AnalyzeRules, SingleThreadedFiresOnThreadIncludesInSched) {
  // Each scheduler has one plan() caller at a time, so src/sched needs no
  // lock: a mutex and its annotations there are violations.
  const auto v = violations_of(
      {header("sched/response_time_scheduler.hpp",
              "#include <mutex>\n#include \"util/thread_annotations.hpp\"\n"
              "#include \"lp/solve_context.hpp\"")},
      "single-threaded");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NE(v[0].message.find("<mutex>"), std::string::npos);
  EXPECT_NE(v[1].message.find("thread_annotations.hpp"), std::string::npos);
  EXPECT_EQ(violations_of({header("sched/income_scheduler.cpp",
                                  "#include <thread>\n#include <atomic>")},
                          "single-threaded")
                .size(),
            2u);
  // util/ keeps the pool and the metrics registry, which do hold locks.
  EXPECT_TRUE(violations_of({header("util/worker_pool.hpp",
                                    "#include <thread>\n"
                                    "#include \"util/thread_annotations.hpp\"")},
                            "single-threaded")
                  .empty());
}

TEST(AnalyzeRules, SingleThreadedFiresOnThreadIncludesInCore) {
  // The flow analysis walks paths serially: a thread in src/core is a
  // violation.
  const auto v = violations_of(
      {header("core/flow.cpp", "#include <thread>\n#include <vector>")},
      "single-threaded");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].message.find("<thread>"), std::string::npos);
}

TEST(AnalyzeRules, NoWallClockSkipsMemberTimeCalls) {
  // `event.time()` and `e->time()` are accessors, not the C library clock.
  EXPECT_TRUE(violations_of({header("sim/a.hpp",
                                    "auto f(Event e) { return e.time(); }\n"
                                    "auto g(Event* e) { return e->time(); }")},
                            "no-wall-clock")
                  .empty());
  EXPECT_EQ(violations_of({header("sim/a.hpp",
                                  "auto f() { return time(nullptr); }")},
                          "no-wall-clock")
                .size(),
            1u);
}

TEST(AnalyzeRules, MutexAnnotatedFiresOnBareMutexMember) {
  const auto v = violations_of(
      {header("core/a.hpp", "class X {\n  int n_ = 0;\n  std::mutex mutex_;\n};")},
      "mutex-annotated");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 4u);
  EXPECT_NE(v[0].message.find("SHAREGRID_GUARDED_BY"), std::string::npos);
}

TEST(AnalyzeRules, MutexAnnotatedPassesWhenAnnotationNamesTheMutex) {
  EXPECT_TRUE(
      violations_of(
          {header("core/a.hpp",
                  "class X {\n"
                  "  int n_ SHAREGRID_GUARDED_BY(mutex_) = 0;\n"
                  "  util::Mutex mutex_;\n};")},
          "mutex-annotated")
          .empty());
  // EXCLUDES on a method also counts (a mutex can guard nothing directly).
  EXPECT_TRUE(
      violations_of(
          {header("core/a.hpp",
                  "class X {\n"
                  "  void run() SHAREGRID_EXCLUDES(mutex_);\n"
                  "  util::Mutex mutex_;\n};")},
          "mutex-annotated")
          .empty());
  // lock_guard<std::mutex> is a use, not a member declaration.
  EXPECT_TRUE(violations_of({header("core/a.hpp",
                                    "void f(std::mutex& m) {\n"
                                    "  const std::lock_guard<std::mutex> l(m);\n"
                                    "}")},
                            "mutex-annotated")
                  .empty());
}

TEST(AnalyzeRules, NodiscardStatusFiresOnUnmarkedDeclaration) {
  const auto v = violations_of(
      {header("lp/a.hpp", "class S {\n  Status solve(Problem& p);\n};")},
      "nodiscard-status");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 3u);
  EXPECT_NE(v[0].message.find("[[nodiscard]]"), std::string::npos);
}

TEST(AnalyzeRules, NodiscardStatusPassesWhenMarkedSameOrPreviousLine) {
  EXPECT_TRUE(
      violations_of(
          {header("lp/a.hpp",
                  "class S {\n  [[nodiscard]] Status solve(Problem& p);\n};")},
          "nodiscard-status")
          .empty());
  EXPECT_TRUE(violations_of({header("lp/a.hpp",
                                    "class S {\n  [[nodiscard]]\n"
                                    "  Status solve(Problem& p);\n};")},
                            "nodiscard-status")
                  .empty());
  // Status used as a value or scope, not a return type.
  EXPECT_TRUE(violations_of({header("lp/a.hpp",
                                    "Status s = Status::kOptimal;\n"
                                    "bool ok(Status s);")},
                            "nodiscard-status")
                  .empty());
}

// ---------------------------------------------------------------------------
// Include-graph rules

TEST(AnalyzeLayerDag, UpwardIncludeFiresWithChainAndAllowedSet) {
  const auto v = violations_of(
      {header("util/bad.hpp", "#include \"sched/thing.hpp\"")}, "layer-dag");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 2u);
  EXPECT_NE(v[0].message.find("util/bad.hpp -> sched/thing.hpp"),
            std::string::npos);
  EXPECT_NE(v[0].message.find("DESIGN.md D11"), std::string::npos);
}

TEST(AnalyzeLayerDag, DownwardAndSameLayerIncludesPass) {
  EXPECT_TRUE(
      violations_of(
          {header("sched/a.hpp",
                  "#include \"core/capacity.hpp\"\n#include \"lp/solver.hpp\"\n"
                  "#include \"sched/b.hpp\"\n#include \"util/time.hpp\""),
           header("sched/b.hpp", "int x;")},
          "layer-dag")
          .empty());
}

TEST(AnalyzeLayerDag, SidewaysPeerIncludeFires) {
  // sim and core are peers: neither may include the other.
  EXPECT_EQ(violations_of({header("sim/a.hpp", "#include \"sched/b.hpp\"")},
                          "layer-dag")
                .size(),
            1u);
}

TEST(AnalyzeLayerDag, IncludeCycleReportsFullChain) {
  const auto v = violations_of(
      {header("sched/a.hpp", "#include \"sched/b.hpp\""),
       header("sched/b.hpp", "#include \"sched/c.hpp\""),
       header("sched/c.hpp", "#include \"sched/a.hpp\"")},
      "layer-dag");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].message.find("include cycle"), std::string::npos);
  // The full chain names every participant, ending where it started.
  EXPECT_NE(v[0].message.find("sched/a.hpp"), std::string::npos);
  EXPECT_NE(v[0].message.find("sched/b.hpp"), std::string::npos);
  EXPECT_NE(v[0].message.find("sched/c.hpp"), std::string::npos);
}

TEST(AnalyzeLayerDag, EveryLayerMayDependOnItselfAndTableIsClosed) {
  // The allowed-deps table is the single source of truth for DESIGN.md D11;
  // sanity-pin its shape: self-edges everywhere, and every named dependency
  // is itself a known layer.
  for (const auto& [layer, deps] : allowed_layer_deps()) {
    EXPECT_EQ(deps.count(layer), 1u) << layer;
    for (const std::string& dep : deps)
      EXPECT_EQ(allowed_layer_deps().count(dep), 1u)
          << layer << " -> " << dep;
  }
  EXPECT_EQ(layer_of("util/time.hpp"), "util");
  EXPECT_EQ(layer_of("not_a_layer/x.hpp"), "");
}

// ---------------------------------------------------------------------------
// Baseline workflow and output formats

TEST(AnalyzeBaseline, EntrySuppressesMatchingViolation) {
  const std::vector<SourceFile> files = {
      header("core/a.hpp", "void f() { assert(1); }")};
  const auto baseline = parse_baseline(
      "# tolerated while the port lands\nno-raw-assert core/a.hpp\n");
  const Report report = analyze(files, baseline);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed, 1u);
  EXPECT_TRUE(report.stale.empty());
}

TEST(AnalyzeBaseline, EntryOnlySuppressesItsOwnRule) {
  const std::vector<SourceFile> files = {
      header("core/a.hpp", "void f() { assert(1); std::cout << 1; }")};
  const Report report =
      analyze(files, parse_baseline("no-raw-assert core/a.hpp\n"));
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "no-stdout");
}

TEST(AnalyzeBaseline, StaleEntryFailsTheRun) {
  const std::vector<SourceFile> files = {header("core/a.hpp", "int x;")};
  const Report report =
      analyze(files, parse_baseline("no-raw-assert core/gone.hpp\n"));
  EXPECT_TRUE(report.violations.empty());
  ASSERT_EQ(report.stale.size(), 1u);
  EXPECT_EQ(report.stale[0].rule, "no-raw-assert");
  EXPECT_EQ(report.stale[0].path, "core/gone.hpp");
  EXPECT_FALSE(report.clean());
}

TEST(AnalyzeBaseline, MatchesOnCanonicalPath) {
  // The scan may run from anywhere; baseline entries use src-relative paths.
  const std::vector<SourceFile> files = {
      header("/root/repo/src/core/a.hpp", "void f() { assert(1); }")};
  const Report report =
      analyze(files, parse_baseline("no-raw-assert core/a.hpp\n"));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(AnalyzeReport, TextFormatShowsPathLineRuleAndSummary) {
  const Report report =
      analyze({header("core/a.hpp", "void f() { assert(1); }")});
  std::ostringstream out;
  write_text(report, out);
  EXPECT_NE(out.str().find("core/a.hpp:2: [no-raw-assert]"),
            std::string::npos);
  EXPECT_NE(out.str().find("1 violation(s)"), std::string::npos);
}

TEST(AnalyzeReport, JsonFormatIsWellFormedAndEscaped) {
  const Report report = analyze(
      {header("core/a.hpp", "void f() { assert(1); }")});
  std::ostringstream out;
  write_json(report, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"violations\":[{\"file\":\"core/a.hpp\",\"line\":2,"
                      "\"rule\":\"no-raw-assert\""),
            std::string::npos);
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  // Clean runs render an empty list, not a missing key.
  const Report ok = analyze({header("core/a.hpp", "int x;")});
  std::ostringstream out_ok;
  write_json(ok, out_ok);
  EXPECT_NE(out_ok.str().find("\"violations\":[]"), std::string::npos);
  EXPECT_NE(out_ok.str().find("\"clean\":true"), std::string::npos);
}

TEST(AnalyzeReport, JsonEscapesQuotesAndBackslashes) {
  std::ostringstream out;
  Report report;
  report.violations.push_back({"a\"b\\c.hpp", 1, "r", "line1\nline2\ttab"});
  write_json(report, out);
  EXPECT_NE(out.str().find("a\\\"b\\\\c.hpp"), std::string::npos);
  EXPECT_NE(out.str().find("line1\\nline2\\ttab"), std::string::npos);
}

}  // namespace
}  // namespace sharegrid::analyze
