#!/usr/bin/env python3
"""Folds fresh google-benchmark JSON runs into BENCH_sim.json, which keeps
two sections side by side:

  baseline : the pre-timing-wheel engine (std::priority_queue of
             std::function events), frozen for before/after comparison
  current  : the timing-wheel engine + sharded scenario runner + flat
             flow tables, refreshed by SHAREGRID_CI_QUICK_BENCH=1 tools/ci.sh

Multiple FRESH_JSON files concatenate (micro_sim and micro_flow are separate
binaries but share the section); the context is taken from the first file.
google-benchmark's own context describes the benchmark library, not ours, so
the section context also records our CMAKE_BUILD_TYPE, read from the build
tree's CMakeCache.txt (--build-dir, default build-relwithdebinfo, the tree
tools/ci.sh benchmarks), and the host's nproc.

The update is coverage-gated: every benchmark name already recorded in the
target section must appear in the fresh runs, so a renamed benchmark, an
over-narrow --benchmark_filter, or a crashed binary cannot silently drop a
measurement from the checked-in history.

Usage: tools/update_sim_bench.py FRESH_JSON... [--section current|baseline]
                                  [--build-dir DIR]
"""
import argparse
import json
import os
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BENCH = REPO / "BENCH_sim.json"

KEEP_CONTEXT = ("date", "host_name", "num_cpus", "mhz_per_cpu",
                "cpu_scaling_enabled")
KEEP_BENCH = ("name", "iterations", "real_time", "cpu_time", "time_unit",
              "items_per_second")


def condense(raw):
    """Keeps just the fields a before/after comparison needs."""
    return {
        "context": {k: raw["context"][k]
                    for k in KEEP_CONTEXT if k in raw["context"]},
        "benchmarks": [{k: b[k] for k in KEEP_BENCH if k in b}
                       for b in raw["benchmarks"]
                       if b.get("run_type", "iteration") == "iteration"],
    }


def cmake_build_type(build_dir):
    """CMAKE_BUILD_TYPE from build_dir's CMakeCache.txt, or None without a
    cache. An empty entry means the top-level CMakeLists.txt default,
    RelWithDebInfo."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip() or "RelWithDebInfo"
    return "RelWithDebInfo"


def check_coverage(fresh, reference, section):
    """Every benchmark recorded in the checked-in section must be present in
    the fresh runs. Returns a list of messages naming each absent entry."""
    fresh_names = {b["name"] for b in fresh.get("benchmarks", [])}
    problems = []
    for b in reference.get("benchmarks", []):
        name = b.get("name")
        if name is not None and name not in fresh_names:
            problems.append(
                f"benchmark '{name}' is recorded in the checked-in "
                f"'{section}' section but absent from the fresh runs — "
                "run the benches unfiltered or drop the entry on purpose")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", type=pathlib.Path, nargs="+")
    parser.add_argument("--section", default="current",
                        choices=("current", "baseline"))
    parser.add_argument("--build-dir", type=pathlib.Path,
                        default=REPO / "build-relwithdebinfo",
                        help="build tree the fresh runs came from")
    args = parser.parse_args()

    build_type = cmake_build_type(args.build_dir)
    if build_type is None:
        print(f"update_sim_bench: no CMakeCache.txt in {args.build_dir}; "
              "pass the build tree the benches ran from with --build-dir",
              file=sys.stderr)
        return 1

    fresh = None
    for path in args.fresh:
        with open(path) as f:
            part = condense(json.load(f))
        if fresh is None:
            fresh = part
        else:
            fresh["benchmarks"] += part["benchmarks"]
    fresh["context"]["cmake_build_type"] = build_type
    fresh["context"]["nproc"] = len(os.sched_getaffinity(0))

    doc = {}
    if BENCH.exists():
        with open(BENCH) as f:
            doc = json.load(f)
    doc.setdefault(
        "comment",
        "Simulator event-engine throughput, before (priority-queue engine) "
        "and after (hierarchical timing wheel); see docs/sim-performance.md")

    if args.section in doc:
        problems = check_coverage(fresh, doc[args.section], args.section)
        if problems:
            for p in problems:
                print(f"update_sim_bench: {p}", file=sys.stderr)
            return 1
    doc[args.section] = fresh

    with open(BENCH, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"updated {BENCH.relative_to(REPO)} section '{args.section}' "
          f"({len(fresh['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
