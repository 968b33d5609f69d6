// Rule logic for sharegrid_analyze (see docs/static-analysis.md for the
// rule table and rationale).
//
// Per-file rules operate on one AnalyzedFile; the include-graph rules
// (layer-dag) see every file at once and live in include_graph.hpp. All
// rules append to a caller-owned Violation vector so the orchestration in
// analyzer.cpp stays a flat loop.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analyze/source.hpp"

namespace sharegrid::analyze {

struct Violation {
  std::string file;  ///< path as given by the caller
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// A quoted #include directive ("project/header.hpp" form).
struct Include {
  std::size_t line = 0;   ///< 1-based line of the directive
  std::string target;     ///< path between the quotes
};

/// A SourceFile parsed once and shared by every rule.
struct AnalyzedFile {
  std::string path;                   ///< as given
  std::string canonical;              ///< canonical_path(path)
  std::vector<std::string> raw_lines;
  std::vector<std::string> code;      ///< comment/literal-stripped lines
  std::vector<Include> includes;      ///< quoted includes, in order
  bool is_header = false;
  bool is_source = false;             ///< .cpp
  bool is_cmake = false;              ///< CMakeLists.txt

  static AnalyzedFile parse(const SourceFile& file);
};

/// All single-file source rules: no-raw-assert, no-stdout, no-raw-rng,
/// pragma-once, coord-owns-windows, no-wall-clock, no-unordered-iteration,
/// sans-io, single-threaded, mutex-annotated, nodiscard-status.
void check_source_rules(const AnalyzedFile& file, std::vector<Violation>* out);

/// warnings-linked: a CMakeLists.txt defining a compiled target must link
/// sharegrid_warnings.
void check_cmake_rules(const AnalyzedFile& file, const std::string& text,
                       std::vector<Violation>* out);

}  // namespace sharegrid::analyze
