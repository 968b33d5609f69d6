#include "analyze/rules.hpp"

#include <algorithm>

namespace sharegrid::analyze {
namespace {

struct TokenRule {
  std::string rule;
  std::string name;
  char follow;  // '\0' = no requirement
  bool reject_member_access;
  std::string message;
};

const std::vector<TokenRule>& token_rules() {
  static const std::vector<TokenRule> rules = {
      {"no-raw-assert", "assert", '(', false,
       "raw assert(); use SHAREGRID_EXPECTS/ENSURES/ASSERT so the violation "
       "throws ContractViolation instead of aborting"},
      {"no-raw-assert", "abort", '(', false,
       "abort() call; throw ContractViolation (util/assert.hpp) so tests and "
       "long simulations can observe the failure"},
      {"no-stdout", "std::cout", '\0', false,
       "std::cout in library code; return data or throw — printing belongs "
       "in bench/, examples/, and tools/"},
      {"no-stdout", "printf", '(', false,
       "printf in library code; return data or throw — printing belongs in "
       "bench/, examples/, and tools/"},
      {"no-stdout", "puts", '(', false,
       "puts in library code; return data or throw — printing belongs in "
       "bench/, examples/, and tools/"},
      {"no-raw-rng", "rand", '(', false,
       "rand(); determinism is load-bearing (DESIGN.md D4) — draw from a "
       "seeded sharegrid::Rng"},
      {"no-raw-rng", "srand", '(', false,
       "srand(); determinism is load-bearing (DESIGN.md D4) — seed a "
       "sharegrid::Rng instead of the global C stream"},
      {"no-raw-rng", "random_device", '\0', false,
       "std::random_device is unseeded, non-deterministic entropy; thread a "
       "seeded sharegrid::Rng through instead"},
      {"no-unordered-iteration", "unordered_map", '\0', false,
       "std::unordered_map iterates in hash order, which varies across "
       "libraries and runs — determinism is load-bearing (DESIGN.md D4); use "
       "std::map, a sorted vector, or an index-keyed flat container"},
      {"no-unordered-iteration", "unordered_set", '\0', false,
       "std::unordered_set iterates in hash order, which varies across "
       "libraries and runs — determinism is load-bearing (DESIGN.md D4); use "
       "std::set, a sorted vector, or an index-keyed flat container"},
      {"no-unordered-iteration", "unordered_multimap", '\0', false,
       "std::unordered_multimap iterates in hash order (DESIGN.md D4); use "
       "an ordered or flat container"},
      {"no-unordered-iteration", "unordered_multiset", '\0', false,
       "std::unordered_multiset iterates in hash order (DESIGN.md D4); use "
       "an ordered or flat container"},
  };
  return rules;
}

/// Wall-clock tokens banned outside src/live/ and util/time.hpp: simulated
/// time is the only time source the deterministic layers may read
/// (DESIGN.md D4). Member calls like `event.time()` are not wall clocks and
/// are skipped via reject_member_access.
const std::vector<TokenRule>& wall_clock_rules() {
  static const std::vector<TokenRule> rules = {
      {"no-wall-clock", "steady_clock", '\0', false,
       "steady_clock outside src/live/; deterministic layers take SimTime "
       "from util/time.hpp — only the live drivers own a wall clock "
       "(DESIGN.md D4)"},
      {"no-wall-clock", "system_clock", '\0', false,
       "system_clock outside src/live/; deterministic layers take SimTime "
       "from util/time.hpp — only the live drivers own a wall clock "
       "(DESIGN.md D4)"},
      {"no-wall-clock", "high_resolution_clock", '\0', false,
       "high_resolution_clock outside src/live/; deterministic layers take "
       "SimTime from util/time.hpp (DESIGN.md D4)"},
      {"no-wall-clock", "time", '(', true,
       "time() outside src/live/; deterministic layers take SimTime from "
       "util/time.hpp — only the live drivers own a wall clock "
       "(DESIGN.md D4)"},
      {"no-wall-clock", "gettimeofday", '(', false,
       "gettimeofday() outside src/live/ (DESIGN.md D4); take SimTime from "
       "util/time.hpp"},
      {"no-wall-clock", "clock_gettime", '(', false,
       "clock_gettime() outside src/live/ (DESIGN.md D4); take SimTime from "
       "util/time.hpp"},
  };
  return rules;
}

bool wall_clock_exempt(const std::string& canonical) {
  return canonical.rfind("live/", 0) == 0 || canonical == "util/time.hpp";
}

/// Files allowed to own a WindowScheduler by value: the control plane
/// (src/coord/) and the class's own definition/test-support files.
bool may_own_window_scheduler(const AnalyzedFile& file) {
  const std::string& c = file.canonical;
  const std::size_t slash = c.find_last_of('/');
  const std::string name = slash == std::string::npos ? c : c.substr(slash + 1);
  if (name.rfind("window_scheduler", 0) == 0) return true;
  return c.rfind("coord/", 0) == 0;
}

/// Flags `WindowScheduler` tokens that are not mere references, pointers, or
/// qualified-name uses — i.e. by-value declarations and constructor calls —
/// in files outside src/coord/. Owning a window scheduler directly bypasses
/// coord::ControlPlane and forks the window loop the sim and live drivers
/// are meant to share (DESIGN.md D10).
void check_window_scheduler_ownership(const AnalyzedFile& file,
                                      std::vector<Violation>* out) {
  if (may_own_window_scheduler(file)) return;
  static const std::string kName = "WindowScheduler";
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    bool hit = false;
    std::size_t pos = 0;
    while (!hit && (pos = line.find(kName, pos)) != std::string::npos) {
      const bool boundary = pos == 0 || !is_identifier_char(line[pos - 1]);
      std::size_t after = pos + kName.size();
      pos += kName.size();
      if (!boundary) continue;
      if (after < line.size() && is_identifier_char(line[after])) continue;
      while (after < line.size() && line[after] == ' ') ++after;
      const char next = after < line.size() ? line[after] : '\0';
      hit = next != '&' && next != '*' && next != ':';
    }
    if (!hit) continue;
    if (i < file.raw_lines.size() &&
        allows(file.raw_lines[i], "coord-owns-windows"))
      continue;
    out->push_back(
        {file.path, i + 1, "coord-owns-windows",
         "direct WindowScheduler ownership outside src/coord/; obtain "
         "windows through a coord::ControlPlane member so the sim and live "
         "drivers keep sharing one window loop (DESIGN.md D10)"});
  }
}

/// A mutex member declaration found in a stripped code line.
struct MutexMember {
  std::size_t line = 0;  ///< 1-based
  std::string name;
  std::string type;      ///< as written: "std::mutex" or "util::Mutex" ...
};

/// Scans a stripped line for `std::mutex name;` / `util::Mutex name;` /
/// `Mutex name;` member declarations (optionally `mutable`). References,
/// pointers, and template arguments (`lock_guard<std::mutex>`) don't match
/// because the type token must be followed directly by the member name.
void find_mutex_members(const AnalyzedFile& file,
                        std::vector<MutexMember>* out) {
  static const std::vector<std::string> kTypes = {"std::mutex", "util::Mutex",
                                                  "Mutex"};
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (const std::string& type : kTypes) {
      std::size_t pos = 0;
      while ((pos = line.find(type, pos)) != std::string::npos) {
        const std::size_t start = pos;
        std::size_t after = pos + type.size();
        pos += type.size();
        const bool boundary =
            start == 0 || (!is_identifier_char(line[start - 1]) &&
                           line[start - 1] != ':');
        if (!boundary) continue;
        if (after < line.size() && is_identifier_char(line[after])) continue;
        while (after < line.size() && line[after] == ' ') ++after;
        std::size_t name_end = after;
        while (name_end < line.size() && is_identifier_char(line[name_end]))
          ++name_end;
        if (name_end == after) continue;  // reference/pointer/template use
        std::size_t semi = name_end;
        while (semi < line.size() && line[semi] == ' ') ++semi;
        if (semi < line.size() && line[semi] != ';') continue;  // fn param etc.
        out->push_back({i + 1, line.substr(after, name_end - after), type});
      }
    }
  }
}

/// True when @p name appears as an argument of any SHAREGRID_* thread-safety
/// annotation anywhere in the file.
bool named_in_annotation(const AnalyzedFile& file, const std::string& name) {
  static const std::vector<std::string> kAnnotations = {
      "SHAREGRID_GUARDED_BY",  "SHAREGRID_PT_GUARDED_BY",
      "SHAREGRID_REQUIRES",    "SHAREGRID_EXCLUDES",
      "SHAREGRID_ACQUIRE",     "SHAREGRID_RELEASE",
      "SHAREGRID_TRY_ACQUIRE",
  };
  for (const std::string& line : file.code) {
    for (const std::string& annotation : kAnnotations) {
      std::size_t pos = 0;
      while ((pos = line.find(annotation, pos)) != std::string::npos) {
        const std::size_t open = line.find('(', pos + annotation.size());
        pos += annotation.size();
        if (open == std::string::npos) continue;
        const std::size_t close = line.find(')', open);
        const std::string args =
            line.substr(open + 1, close == std::string::npos
                                      ? std::string::npos
                                      : close - open - 1);
        if (has_token(args, name, '\0')) return true;
      }
    }
  }
  return false;
}

/// mutex-annotated: every mutex member must be named by at least one
/// thread-safety annotation, so annotation coverage is enforced even under
/// compilers that ignore the attributes (GCC).
void check_mutex_annotated(const AnalyzedFile& file,
                           std::vector<Violation>* out) {
  std::vector<MutexMember> members;
  find_mutex_members(file, &members);
  for (const MutexMember& member : members) {
    if (named_in_annotation(file, member.name)) continue;
    if (member.line - 1 < file.raw_lines.size() &&
        allows(file.raw_lines[member.line - 1], "mutex-annotated"))
      continue;
    out->push_back(
        {file.path, member.line, "mutex-annotated",
         member.type + " " + member.name +
             " is not named by any SHAREGRID_GUARDED_BY/REQUIRES/EXCLUDES "
             "annotation; declare what it guards (util/thread_annotations."
             "hpp) so Clang's -Wthread-safety can check the locking "
             "discipline"});
  }
}

/// nodiscard-status: a function returning lp::Status must be [[nodiscard]] —
/// a dropped Status silently turns an infeasible or iteration-limited solve
/// into a bogus plan. Matches `Status name(`-shaped declarations and accepts
/// [[nodiscard]] on the same or the preceding line.
void check_nodiscard_status(const AnalyzedFile& file,
                            std::vector<Violation>* out) {
  static const std::string kName = "Status";
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    bool hit = false;
    std::size_t pos = 0;
    while (!hit && (pos = line.find(kName, pos)) != std::string::npos) {
      const std::size_t start = pos;
      std::size_t after = pos + kName.size();
      pos += kName.size();
      const bool boundary = start == 0 || !is_identifier_char(line[start - 1]);
      if (!boundary) continue;
      // `Status::kOptimal`, `StatusCode`, `SolveStatus` are not return types.
      if (after < line.size() &&
          (is_identifier_char(line[after]) || line[after] == ':'))
        continue;
      while (after < line.size() && line[after] == ' ') ++after;
      std::size_t name_end = after;
      while (name_end < line.size() && is_identifier_char(line[name_end]))
        ++name_end;
      if (name_end == after) continue;  // `Status s = ...`, `Status;` etc.
      std::size_t paren = name_end;
      while (paren < line.size() && line[paren] == ' ') ++paren;
      hit = paren < line.size() && line[paren] == '(';
      // `Status foo(...)` found — a declaration or definition either way.
    }
    if (!hit) continue;
    const bool marked =
        line.find("[[nodiscard]]") != std::string::npos ||
        (i > 0 && file.code[i - 1].find("[[nodiscard]]") != std::string::npos);
    if (marked) continue;
    if (i < file.raw_lines.size() && allows(file.raw_lines[i], "nodiscard-status"))
      continue;
    out->push_back(
        {file.path, i + 1, "nodiscard-status",
         "function returning lp::Status is not [[nodiscard]]; a dropped "
         "Status turns kInfeasible/kIterationLimit into a silently wrong "
         "plan — mark the declaration [[nodiscard]]"});
  }
}

/// Reports each #include of @p file whose target starts with one of
/// @p banned as a @p rule violation; @p why follows the include in the
/// message.
void check_banned_includes(const AnalyzedFile& file,
                           const std::vector<std::string>& banned,
                           const std::string& rule, const std::string& why,
                           std::vector<Violation>* out) {
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    std::size_t pos = code.find_first_not_of(' ');
    if (pos == std::string::npos || code[pos] != '#') continue;
    pos = code.find_first_not_of(' ', pos + 1);
    if (pos == std::string::npos || code.compare(pos, 7, "include") != 0)
      continue;
    const std::string& raw = file.raw_lines[i];
    const std::size_t open = raw.find_first_of("\"<", pos + 7);
    if (open == std::string::npos) continue;
    for (const std::string& prefix : banned) {
      if (raw.compare(open, prefix.size(), prefix) != 0) continue;
      if (allows(raw, rule)) continue;
      out->push_back({file.path, i + 1, rule,
                      file.canonical + " includes " + raw.substr(open) + why});
    }
  }
}

/// sans-io: the round protocol (coord/round_protocol.*) is a pure state
/// machine, so it may include neither the socket, simulator and live layers
/// nor the clock header. That is what lets the same protocol run over TCP,
/// in one process, or under a simulated network with a fake clock
/// (docs/control-plane.md).
void check_sans_io(const AnalyzedFile& file, std::vector<Violation>* out) {
  if (file.canonical.rfind("coord/round_protocol.", 0) != 0) return;
  check_banned_includes(
      file, {"\"net/", "\"sim/", "\"live/", "<chrono>"}, "sans-io",
      "; the round protocol must stay free of sockets, simulators and "
      "clocks so every driver (TCP, one process, a simulated network) runs "
      "the same state machine",
      out);
}

/// coord-single-threaded: the control plane runs entirely on its caller's
/// thread — the session layer does its socket I/O inside poll() — so no
/// src/coord file may include the thread, lock or atomic headers.
void check_coord_single_threaded(const AnalyzedFile& file,
                                 std::vector<Violation>* out) {
  if (file.canonical.rfind("coord/", 0) != 0) return;
  check_banned_includes(
      file,
      {"<thread>", "<mutex>", "<atomic>", "\"util/thread_annotations.hpp\""},
      "coord-single-threaded",
      "; the control plane runs on its caller's thread, so it needs no "
      "thread, lock or atomic (docs/control-plane.md)",
      out);
}

}  // namespace

AnalyzedFile AnalyzedFile::parse(const SourceFile& file) {
  AnalyzedFile out;
  out.path = file.path;
  out.canonical = canonical_path(file.path);
  out.raw_lines = split_lines(file.content);
  const std::size_t slash = file.path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? file.path : file.path.substr(slash + 1);
  out.is_cmake = name == "CMakeLists.txt";
  const std::size_t dot = name.find_last_of('.');
  const std::string ext = dot == std::string::npos ? "" : name.substr(dot);
  out.is_header = ext == ".hpp";
  out.is_source = ext == ".cpp";
  if (out.is_cmake) return out;  // cmake text is scanned raw
  out.code = strip_comments_and_literals(file.content);
  // Quoted includes: the directive must survive stripping (i.e. not be
  // commented out), but the target is read from the raw line because the
  // stripper blanks string contents.
  for (std::size_t i = 0; i < out.code.size(); ++i) {
    const std::string& code = out.code[i];
    std::size_t pos = code.find_first_not_of(' ');
    if (pos == std::string::npos || code[pos] != '#') continue;
    pos = code.find_first_not_of(' ', pos + 1);
    if (pos == std::string::npos || code.compare(pos, 7, "include") != 0)
      continue;
    const std::string& raw = out.raw_lines[i];
    const std::size_t open = raw.find('"');
    if (open == std::string::npos) continue;  // <system> include
    const std::size_t close = raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.includes.push_back({i + 1, raw.substr(open + 1, close - open - 1)});
  }
  return out;
}

void check_source_rules(const AnalyzedFile& file, std::vector<Violation>* out) {
  if (file.is_header) {
    bool has_pragma = false;
    for (const std::string& line : file.code)
      if (line.find("#pragma once") != std::string::npos) has_pragma = true;
    if (!has_pragma)
      out->push_back({file.path, 1, "pragma-once",
                      "header is missing #pragma once; every sharegrid header "
                      "guards with it"});
  }

  const bool clock_exempt = wall_clock_exempt(file.canonical);
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    for (const TokenRule& rule : token_rules()) {
      if (!has_token(file.code[i], rule.name, rule.follow,
                     rule.reject_member_access))
        continue;
      if (i < file.raw_lines.size() && allows(file.raw_lines[i], rule.rule))
        continue;
      out->push_back({file.path, i + 1, rule.rule, rule.message});
    }
    if (!clock_exempt) {
      for (const TokenRule& rule : wall_clock_rules()) {
        if (!has_token(file.code[i], rule.name, rule.follow,
                       rule.reject_member_access))
          continue;
        if (i < file.raw_lines.size() && allows(file.raw_lines[i], rule.rule))
          continue;
        out->push_back({file.path, i + 1, rule.rule, rule.message});
      }
    }
  }

  check_window_scheduler_ownership(file, out);
  check_sans_io(file, out);
  check_coord_single_threaded(file, out);
  check_mutex_annotated(file, out);
  check_nodiscard_status(file, out);
}

void check_cmake_rules(const AnalyzedFile& file, const std::string& text,
                       std::vector<Violation>* out) {
  bool compiled_target = false;
  std::size_t target_line = 0;
  for (const std::string& command :
       {std::string("add_library"), std::string("add_executable")}) {
    std::size_t pos = 0;
    while ((pos = text.find(command, pos)) != std::string::npos) {
      const std::size_t open = text.find('(', pos + command.size());
      if (open == std::string::npos) break;
      const std::size_t close = text.find(')', open);
      const std::string args = text.substr(
          open + 1,
          close == std::string::npos ? std::string::npos : close - open - 1);
      if (args.find("INTERFACE") == std::string::npos &&
          args.find("ALIAS") == std::string::npos &&
          args.find("IMPORTED") == std::string::npos) {
        compiled_target = true;
        target_line =
            1 + static_cast<std::size_t>(std::count(
                    text.begin(),
                    text.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
      }
      pos = open;
    }
  }
  if (compiled_target && text.find("sharegrid_warnings") == std::string::npos) {
    out->push_back({file.path, target_line, "warnings-linked",
                    "defines a compiled target but never links "
                    "sharegrid_warnings; the target escapes -Werror and the "
                    "SHAREGRID_SANITIZE wiring"});
  }
}

}  // namespace sharegrid::analyze
