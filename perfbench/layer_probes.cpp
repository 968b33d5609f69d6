// Probes that time one library layer in isolation, on inputs sized like the
// workload that reports them, and the trace-derived self-time metrics.
#include <algorithm>
#include <string>
#include <vector>

#include "common.hpp"
#include "http/message.hpp"
#include "l4/connection_table.hpp"

namespace perfbench {

std::pair<double, double> probe_http_ns(std::uint64_t seed) {
  constexpr int kRequests = 512;
  constexpr int kBatches = 9;
  SeqRng rng(seed ^ 0x4774);
  std::vector<sharegrid::http::Request> requests(kRequests);
  std::vector<std::string> wire(kRequests);
  const char* principals[] = {"S", "A", "B"};
  for (int i = 0; i < kRequests; ++i) {
    auto& r = requests[static_cast<std::size_t>(i)];
    r.target = std::string("/org/") + principals[rng.next() % 3] + "/page-" +
               std::to_string(rng.next() % 100000) + ".html";
    r.headers["host"] = "127.0.0.1:8080";
    r.headers["user-agent"] = "perfbench/1";
    if (rng.uniform(0.0, 1.0) < 0.5) r.headers["accept"] = "*/*";
    wire[static_cast<std::size_t>(i)] = r.serialize();
  }
  std::vector<double> parse, serialize;
  std::size_t sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    {
      const Span span("http", "parse_request x512");
      const std::int64_t start = now_ns();
      for (const std::string& text : wire) {
        const auto parsed = sharegrid::http::parse_request(text);
        sink += parsed ? parsed->target.size() : 0;
      }
      parse.push_back(static_cast<double>(now_ns() - start) / kRequests);
    }
    {
      const Span span("http", "Request::serialize x512");
      const std::int64_t start = now_ns();
      for (const auto& r : requests) sink += r.serialize().size();
      serialize.push_back(static_cast<double>(now_ns() - start) / kRequests);
    }
  }
  if (sink == 0) return {0.0, 0.0};  // keeps the loops observable
  return {median(parse), median(serialize)};
}

double probe_flow_op_ns(std::uint64_t seed, std::size_t flows) {
  using sharegrid::l4::Endpoint;
  SeqRng rng(seed ^ 0xf10f);
  sharegrid::l4::ConnectionTable table;
  const Endpoint vip{0x0a000001u, 80};
  const auto client = [](std::size_t i) {
    return Endpoint{0x0b000000u + static_cast<std::uint32_t>(i >> 12),
                    static_cast<std::uint16_t>(1024 + (i & 0xfff))};
  };
  const auto server = [](std::size_t i) {
    return Endpoint{0x14000000u + static_cast<std::uint32_t>(i % 8), 80};
  };
  for (std::size_t i = 0; i < flows; ++i) table.establish(client(i), vip, server(i));

  // Steady-state churn at a constant live-flow count: each step tears one
  // flow down, establishes a fresh one and looks up a random live flow.
  constexpr std::size_t kSteps = 1 << 18;
  std::vector<std::size_t> picks(kSteps);
  for (auto& p : picks) p = static_cast<std::size_t>(rng.next() % flows);
  std::vector<double> per_op;
  std::size_t next = flows;
  std::size_t oldest = 0;
  std::size_t hits = 0;
  for (int batch = 0; batch < 5; ++batch) {
    const Span span("l4", "ConnectionTable churn");
    const std::int64_t start = now_ns();
    for (std::size_t s = 0; s < kSteps; ++s) {
      table.release(client(oldest), vip);
      ++oldest;
      table.establish(client(next), vip, server(next));
      ++next;
      hits += table.lookup(client(oldest + picks[s] % (next - oldest)), vip)
                  .has_value();
    }
    per_op.push_back(static_cast<double>(now_ns() - start) / (3.0 * kSteps));
  }
  return hits == 0 ? 0.0 : median(per_op);
}

void put_plan_metrics(Result& result, const std::vector<double>& plan_us,
                      const sharegrid::lp::SolveStats& stats) {
  result.put("sched.plan_us_p50", quantile(plan_us, 0.5), "us");
  result.put("sched.plan_us_p99", quantile(plan_us, 0.99), "us");
  result.put("sched.plan_calls", static_cast<double>(plan_us.size()), "count");
  const double solves =
      static_cast<double>(std::max<std::uint64_t>(1, stats.solves));
  result.put("lp.pivots_per_solve", static_cast<double>(stats.pivots) / solves,
             "count");
  result.put("lp.warm_ratio", static_cast<double>(stats.warm_solves) / solves,
             "ratio");
  result.put("lp.dual_recoveries", static_cast<double>(stats.dual_recoveries),
             "count");
  result.put("lp.structure_misses", static_cast<double>(stats.structure_misses),
             "count");
  result.put("lp.refactorizations", static_cast<double>(stats.refactorizations),
             "count");
}

void put_self_times(Result& result) {
  // Spans open only around calls into a library layer, so a layer's self
  // time is the time spent in its public calls minus the nested calls into
  // other layers that the benchmark also wraps (e.g. a control-plane window
  // step minus the Scheduler::plan inside it).
  const auto self = Tracer::self_ms_by_layer();
  for (const char* layer :
       {"experiments", "core", "coord", "sched", "l4", "http", "net", "live"}) {
    const auto it = self.find(layer);
    result.put(std::string("self_ms.") + layer,
               it == self.end() ? 0.0 : it->second, "ms");
  }
  result.put("trace.spans", static_cast<double>(Tracer::span_count()), "count");
}

}  // namespace perfbench
