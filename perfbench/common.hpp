// Shared plumbing for the benchmark driver: clocks, percentiles, process
// memory probes, the in-memory span tracer, the timing Scheduler decorator
// and the per-run result record every workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "lp/solve_context.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";  ///< scratch files, traces
  /// plane_socket: windows between switches of the principal groups.
  std::uint64_t switch_windows = 5;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// CPU time used so far by every thread of the process, in seconds.
double process_cpu_s();

/// Runs @p setup repeatedly; setup(bool timed) returns the seconds its
/// set-up took (without tearing down the previous one). Returns the timed
/// samples. The calls of the first 0.3 s are not kept (cold caches). Timed
/// calls then continue until there are at least five samples and two
/// seconds of set-up time (at most 200), so the median rides out short
/// stretches of a busy host even where one set-up takes well under a
/// millisecond.
template <class Setup>
std::vector<double> time_setups(Setup&& setup) {
  const std::int64_t warmup_start = now_ns();
  do {
    setup(false);
  } while (seconds_since(warmup_start) < 0.3);
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 5 || (total < 2.0 && samples.size() < 200)) {
    samples.push_back(setup(true));
    total += samples.back();
  }
  return samples;
}

/// Linear-interpolated quantile (q in [0, 1]) of @p values; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// Process memory, from getrusage / /proc/self/status.
double peak_rss_mb();
double vm_size_mb();
int thread_count();

/// splitmix64 step: the benchmark's only source of seeded randomness, so an
/// input depends on (seed, stream, index) and on nothing else.
std::uint64_t mix(std::uint64_t x);
/// Uniform double in [0, 1) for the given key tuple.
double unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
            std::uint64_t c = 0);

/// Sequential seeded generator for inputs built in one pass.
class SeqRng {
 public:
  explicit SeqRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix(state_ += 0x9e3779b97f4a7c15ULL); }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Exponential inter-arrival gap with the given mean.
  double exponential(double mean);

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory around each timed call into a library layer,
// written out when the run ends. Disabled unless the run was started with
// --trace 1; a disabled Span costs one branch.

class Tracer {
 public:
  struct Record {
    const char* layer;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  ///< index into the same thread's buffer; -1 = root
    std::uint32_t thread;
  };

  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void set_enabled(bool on) { enabled_.store(on); }

  /// Opens a span on the calling thread; returns its index.
  static std::int64_t open(const char* layer, const char* name);
  static void close(std::int64_t index);

  /// Self time per layer (span duration minus the part its child spans
  /// cover), in milliseconds, over every span recorded so far.
  static std::map<std::string, double> self_ms_by_layer();
  static std::size_t span_count();
  /// Writes every span as one JSON object per line; returns false on error.
  static bool write(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

class Span {
 public:
  Span(const char* layer, const char* name)
      : index_(Tracer::enabled() ? Tracer::open(layer, name) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_;
};

// ---------------------------------------------------------------------------

/// Timing decorator passed wherever the library takes a
/// `const sched::Scheduler*`: forwards plan() and records its latency when
/// tracing is on, and optionally a digest of every plan for an independent
/// replay.
class TimedScheduler final : public sharegrid::sched::Scheduler {
 public:
  explicit TimedScheduler(const sharegrid::sched::Scheduler* inner,
                          bool record_digests = false)
      : inner_(inner), record_digests_(record_digests) {}

  sharegrid::sched::Plan plan(const std::vector<double>& demand) const override;
  std::size_t size() const override { return inner_->size(); }

  std::vector<double> plan_us() const;  ///< traced calls only
  double last_plan_ns() const;          ///< duration of the latest call
  const std::vector<std::uint64_t>& digests() const { return digests_; }

 private:
  const sharegrid::sched::Scheduler* inner_;
  bool record_digests_;
  mutable std::mutex mutex_;
  mutable double last_ns_ = 0.0;
  mutable std::vector<double> plan_us_;
  mutable std::vector<std::uint64_t> digests_;
};

/// Bitwise digest of a plan (rate matrix, theta, fallback flag).
std::uint64_t plan_digest(const sharegrid::sched::Plan& plan);

// ---------------------------------------------------------------------------

/// What one run reports: the correctness verdict, operation counts and the
/// metrics in print order.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> errors;

  void put(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check (and keeps going, so every broken
  /// check is reported, not just the first).
  void check(bool ok, const std::string& what);
};

/// Workload entry points. Each measures for opts.seconds, checks its own
/// outputs and fills @p result with the end-to-end metrics (untraced runs)
/// or the per-layer metrics (traced runs).
void run_sim_fleet(const Options& opts, Result& result);
void run_plane_socket(const Options& opts, Result& result);
void run_live_loopback(const Options& opts, Result& result);

// Probes that time one library layer in isolation (layer_probes.cpp).
/// ns per http::parse_request / Request::serialize call.
std::pair<double, double> probe_http_ns(std::uint64_t seed);
/// ns per l4::ConnectionTable operation (establish + lookup + release mix)
/// at @p flows live flows.
double probe_flow_op_ns(std::uint64_t seed, std::size_t flows);
/// Writes the sched.* and lp.* metrics from plan latencies and solver stats.
void put_plan_metrics(Result& result, const std::vector<double>& plan_us,
                      const sharegrid::lp::SolveStats& stats);
/// Writes a trace-derived self-time metric for every library layer.
void put_self_times(Result& result);

}  // namespace perfbench
