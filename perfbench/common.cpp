#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
/// Reads one "Key:   value kB" line of /proc/self/status.
double proc_status_field(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    double value = 0.0;
    fields >> value;
    return value;
  }
  return 0.0;
}
}  // namespace

double vm_size_mb() { return proc_status_field("VmSize") / 1024.0; }
int thread_count() { return static_cast<int>(proc_status_field("Threads")); }

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
            std::uint64_t c) {
  const std::uint64_t h = mix(mix(mix(mix(seed) ^ a) ^ b) ^ c);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double SeqRng::exponential(double mean) {
  return -mean * std::log1p(-uniform(0.0, 1.0));
}

// --- Tracer -----------------------------------------------------------------

std::atomic<bool> Tracer::enabled_{false};

namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Tracer::Record> spans;
  std::vector<std::int64_t> open;  ///< stack of open span indices
};

std::mutex& buffers_mutex() {
  static std::mutex m;
  return m;
}
std::vector<std::unique_ptr<ThreadBuffer>>& buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> all;
  return all;
}

/// Buffers outlive their threads (the live workload's lanes exit before
/// the run reports), so the registry owns them.
ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(buffers_mutex());
    buffers().push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers().back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers().size() - 1);
    buffer->spans.reserve(1 << 14);
  }
  return *buffer;
}

}  // namespace

std::int64_t Tracer::open(const char* layer, const char* name) {
  ThreadBuffer& buffer = local_buffer();
  const std::int64_t parent = buffer.open.empty() ? -1 : buffer.open.back();
  buffer.spans.push_back({layer, name, now_ns(), 0, parent, buffer.thread});
  const auto index = static_cast<std::int64_t>(buffer.spans.size() - 1);
  buffer.open.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  ThreadBuffer& buffer = local_buffer();
  buffer.spans[static_cast<std::size_t>(index)].end_ns = now_ns();
  buffer.open.pop_back();
}

std::map<std::string, double> Tracer::self_ms_by_layer() {
  std::map<std::string, double> self;
  const std::lock_guard<std::mutex> lock(buffers_mutex());
  for (const auto& buffer : buffers()) {
    std::vector<double> child_ns(buffer->spans.size(), 0.0);
    for (const Record& span : buffer->spans)
      if (span.parent >= 0)
        child_ns[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const Record& span = buffer->spans[i];
      const double own =
          static_cast<double>(span.end_ns - span.start_ns) - child_ns[i];
      self[span.layer] += own * 1e-6;
    }
  }
  return self;
}

std::size_t Tracer::span_count() {
  const std::lock_guard<std::mutex> lock(buffers_mutex());
  std::size_t n = 0;
  for (const auto& buffer : buffers()) n += buffer->spans.size();
  return n;
}

bool Tracer::write(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::lock_guard<std::mutex> lock(buffers_mutex());
  for (const auto& buffer : buffers())
    for (const Record& span : buffer->spans)
      std::fprintf(out,
                   "{\"layer\":\"%s\",\"name\":\"%s\",\"thread\":%u,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld}\n",
                   span.layer, span.name, span.thread,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<long long>(span.parent));
  return std::fclose(out) == 0;
}

// --- TimedScheduler ---------------------------------------------------------

std::uint64_t plan_digest(const sharegrid::sched::Plan& plan) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    h = mix(h ^ bits);
  };
  for (std::size_t r = 0; r < plan.rate.rows(); ++r)
    for (std::size_t c = 0; c < plan.rate.cols(); ++c) fold(plan.rate(r, c));
  fold(plan.theta);
  fold(plan.lp_fallback ? 1.0 : 0.0);
  return h;
}

sharegrid::sched::Plan TimedScheduler::plan(
    const std::vector<double>& demand) const {
  const Span span("sched", "Scheduler::plan");
  const std::int64_t start = now_ns();
  sharegrid::sched::Plan result = inner_->plan(demand);
  const auto elapsed = static_cast<double>(now_ns() - start);
  const std::lock_guard<std::mutex> lock(mutex_);
  last_ns_ = elapsed;
  if (Tracer::enabled()) plan_us_.push_back(elapsed * 1e-3);
  if (record_digests_) digests_.push_back(plan_digest(result));
  return result;
}

std::vector<double> TimedScheduler::plan_us() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return plan_us_;
}

double TimedScheduler::last_plan_ns() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_ns_;
}

// --- Result -----------------------------------------------------------------

void Result::put(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [key, entry] : metrics) {
    if (key == name) {
      entry = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

}  // namespace perfbench
