// Live demo: the Layer-7 redirector running over real loopback TCP, not the
// simulator — actual HTTP requests, actual 302 redirects, the same LP
// scheduling stack (§4.1 as a runnable service).
//
//   $ ./live_l7_demo
//
// Starts a backend echo server and the redirector, then plays two
// organizations against each other: "gold" holds [0.6, 1.0] of the
// provider's capacity, "bronze" [0.05, 0.1]. Interleaved 40 req/s streams
// show gold sailing through while bronze bounces off its 10% ceiling.
#include <iostream>
#include <thread>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "http/message.hpp"
#include "live/l7_service.hpp"
#include "net/tcp.hpp"
#include "sched/response_time_scheduler.hpp"
#include "util/table.hpp"

using namespace sharegrid;

namespace {

/// Trivial backend: answers every request with 200 OK.
void backend_loop(net::Socket* listener, std::atomic<bool>* running) {
  while (running->load()) {
    try {
      net::Socket conn = listener->accept();
      if (!running->load()) break;
      conn.read_http_head();
      http::Response ok;
      ok.headers["content-length"] = std::string("0");
      conn.write_all(ok.serialize());
    } catch (const ContractViolation&) {
      // ignore per-connection errors
    }
  }
}

/// One GET; returns the redirect Location (empty when not a 302).
std::string get_location(std::uint16_t port, const std::string& target) {
  net::Socket conn = net::Socket::connect_loopback(port);
  http::Request req;
  req.target = target;
  conn.write_all(req.serialize());
  const auto resp = http::parse_response(conn.read_http_head());
  if (!resp || resp->status != 302) return {};
  return resp->headers.at("location");
}

}  // namespace

int main() {
  // Provider S owns the hardware; gold and bronze hold SLAs against it.
  core::AgreementGraph graph;
  const auto s = graph.add_principal("S", 200.0);  // 200 req/s capacity
  graph.add_principal("gold", 0.0);
  graph.add_principal("bronze", 0.0);
  graph.set_agreement(s, graph.find("gold"), 0.6, 1.0);
  graph.set_agreement(s, graph.find("bronze"), 0.05, 0.1);

  const sched::ResponseTimeScheduler scheduler(
      graph, core::compute_access_levels(graph));

  // Real backend server on an ephemeral loopback port.
  std::atomic<bool> running{true};
  net::Socket backend_listener = net::Socket::listen_on_loopback();
  const std::uint16_t backend_port = backend_listener.local_port();
  std::thread backend(backend_loop, &backend_listener, &running);

  live::L7Service::Config config;
  config.backends = {{"127.0.0.1:" + std::to_string(backend_port), s}};
  live::L7Service service(&scheduler, graph, config);
  service.start();
  std::cout << "redirector listening on 127.0.0.1:" << service.port()
            << ", backend on 127.0.0.1:" << backend_port << "\n\n";

  // Fire interleaved bursts for both organizations over ~1 second.
  int gold_admitted = 0, gold_bounced = 0;
  int bronze_admitted = 0, bronze_bounced = 0;
  const std::string backend_host = "127.0.0.1:" + std::to_string(backend_port);
  for (int i = 0; i < 40; ++i) {
    const std::string gold_loc =
        get_location(service.port(), "/org/gold/app");
    (gold_loc.find(backend_host) != std::string::npos ? gold_admitted
                                                      : gold_bounced)++;
    const std::string bronze_loc =
        get_location(service.port(), "/org/bronze/app");
    (bronze_loc.find(backend_host) != std::string::npos ? bronze_admitted
                                                        : bronze_bounced)++;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }

  TextTable table({"org", "agreement", "admitted", "self-redirected"});
  table.add_row({"gold", "[0.6, 1.0]", std::to_string(gold_admitted),
                 std::to_string(gold_bounced)});
  table.add_row({"bronze", "[0.05, 0.1]", std::to_string(bronze_admitted),
                 std::to_string(bronze_bounced)});
  table.print(std::cout);

  std::cout << "\nBoth offer ~40 req/s; gold sits far below its 120 req/s "
               "floor, so once the\nconservative first window and the "
               "budgeted spike re-plans warm the estimator\nit is admitted "
               "in full, while bronze is clamped to its 20 req/s (10%) "
               "ceiling\nand about half of its stream bounces back for "
               "retry.\n";

  service.stop();
  running.store(false);
  try {
    net::Socket::connect_loopback(backend_port);  // unblock the backend
  } catch (const ContractViolation&) {
  }
  backend.join();
  return 0;
}
