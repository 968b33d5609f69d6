#!/usr/bin/env python3
"""Build and run the sharegrid benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the driver plus every library source under src/) into
.bench_build/perfbench; later runs only re-check the build. The driver's
output is passed through, preceded by one line of host context; the last
line is the result: {"correct", "attempted", "failed", "metrics"}. Untraced
runs report every end_to_end metric of BENCHMARK.json, traced runs every
per_layer metric (0 for a layer the workload does not exercise).
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "sharegrid_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    with open(log_path, "w") as log:
        for cmd in (configure,
                    ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-40:]))
                fail("build failed (" + " ".join(cmd[:2]) + "); see " + log_path)


def cpu_times():
    """Aggregate CPU jiffies from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def host_context(binary_host, before, after):
    """nproc, our build type and compiler, what source was measured, and the
    share of CPU time the hypervisor stole from this host during the run."""
    build_type = ""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    context = dict(binary_host)
    context.update({"nproc": os.cpu_count(), "cmake_build_type": build_type,
                    "git_commit": commit, "source_sha256": digest.hexdigest()})
    if before and after and len(before) > 7:
        delta = [b - a for a, b in zip(before, after)]
        context["steal_pct"] = round(100.0 * delta[7] / max(1, sum(delta)), 2)
    return context


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--switch-windows", type=int, default=5,
                        help="plane_socket: windows between load switches")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    os.makedirs(WORK, exist_ok=True)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK, "--switch-windows", str(args.switch_windows)]
    before = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        # An abort (for instance a std::system_error escaping a service
        # thread) fails the whole run.
        sys.stdout.write(proc.stdout)
        fail("driver exited with status %d" % proc.returncode)

    host = host_context(json.loads(lines[0])["host"], before, cpu_times())
    print(json.dumps({"host": host}))
    for line in lines[1:-1]:
        print(line)
    raw = json.loads(lines[-1])

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        got = raw["metrics"].get(name)
        if got is None and args.trace:
            got = {"value": 0.0, "unit": unit}  # layer not exercised here
        if got is None:
            fail("driver did not report " + name)
        value = got["value"]
        if (got["unit"] != unit or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            fail("bad value for %s: %r" % (name, got))
        if not args.trace and got["value"] <= 0:
            raw["correct"] = False
            raw["errors"].append("%s is not positive" % name)
        metrics[name] = {"value": got["value"], "unit": unit}
    extra = sorted(set(raw["metrics"]) - set(metrics))
    if extra:
        print(json.dumps({"unlisted_metrics": {k: raw["metrics"][k] for k in extra}}))
    for error in raw["errors"]:
        print("check failed: " + error)
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if attempted < 1:
        raw["correct"], attempted, failed = False, 1, 1
        print("check failed: no operation was attempted")
    print(json.dumps({"correct": bool(raw["correct"]), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
