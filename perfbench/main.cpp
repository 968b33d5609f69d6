// sharegrid benchmark driver.
//
//   sharegrid_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> [--work-dir <dir>]
//                       [--switch-windows <n>]
//
// Prints one JSON line with the host context, then one JSON line with the
// run's verdict and metrics (perfbench/run.py turns the latter into the
// benchmark's result line). See perfbench/README.md for the workloads and
// metrics.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <sys/stat.h>

#include "common.hpp"

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: sharegrid_perfbench --workload "
               "<sim_fleet|plane_socket|live_loopback> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--switch-windows <n>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--work-dir") {
      opts.work_dir = value;
    } else if (key == "--switch-windows") {
      opts.switch_windows = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return usage();
    }
  }
  if (opts.workload.empty() || opts.seconds <= 0.0 || opts.switch_windows == 0)
    return usage();
  ::mkdir(opts.work_dir.c_str(), 0755);

  std::printf(
      "{\"host\": {\"nproc\": %ld, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\"}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::fflush(stdout);

  perfbench::Result result;
  try {
    if (opts.workload == "sim_fleet") {
      perfbench::run_sim_fleet(opts, result);
    } else if (opts.workload == "plane_socket") {
      perfbench::run_plane_socket(opts, result);
    } else if (opts.workload == "live_loopback") {
      perfbench::run_live_loopback(opts, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    result.check(false, std::string("exception: ") + e.what());
  }

  if (opts.trace) {
    perfbench::put_self_times(result);
    const std::string path = opts.work_dir + "/trace-" + opts.workload + "-" +
                             std::to_string(opts.seed) + ".jsonl";
    result.check(perfbench::Tracer::write(path), "could not write " + path);
  }
  for (const std::string& error : result.errors)
    std::fprintf(stderr, "check failed: %s\n", error.c_str());

  std::string metrics;
  for (const auto& [name, entry] : result.metrics) {
    char value[64] = "null";  // a non-finite value is not JSON
    if (std::isfinite(entry.first))
      std::snprintf(value, sizeof value, "%.17g", entry.first);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
               entry.second + "\"}";
  }
  std::string errors;
  for (const std::string& error : result.errors) {
    if (!errors.empty()) errors += ", ";
    errors += "\"" + json_escape(error) + "\"";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"errors\": "
      "[%s], \"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), errors.c_str(),
      metrics.c_str());
  return 0;
}
