// Tests for the live (real-socket) Layer-7 redirector service: actual HTTP
// over loopback TCP, driven by the same scheduling stack as the simulator.
#include <gtest/gtest.h>

#include <chrono>

#include "core/agreement_graph.hpp"
#include "core/flow.hpp"
#include "http/message.hpp"
#include "live/l7_service.hpp"
#include "net/tcp.hpp"
#include "sched/response_time_scheduler.hpp"
#include "test_helpers.hpp"

namespace sharegrid::live {
namespace {

/// One HTTP GET over a fresh loopback connection; returns the raw response.
std::string http_get(std::uint16_t port, const std::string& target) {
  net::Socket conn = net::Socket::connect_loopback(port);
  http::Request req;
  req.target = target;
  req.headers["host"] = "127.0.0.1";
  conn.write_all(req.serialize());
  return conn.read_http_head();
}

core::AgreementGraph one_org_graph() {
  core::AgreementGraph g;
  g.add_principal("S", 1000.0);
  g.add_principal("acme", 0.0);
  g.set_agreement(0, 1, 0.5, 1.0);
  return g;
}

// The plain Tcp.* socket tests moved to tests/net_tcp_test.cpp with the
// sockets themselves (live/tcp -> net/tcp); this file keeps the L7 service.

TEST(L7Service, RedirectsAdmittedRequestsToBackend) {
  const core::AgreementGraph graph = one_org_graph();
  test::FixedRateScheduler scheduler({0.0, 10000.0});
  L7Service::Config config;
  config.backends = {{"127.0.0.1:9001", 1}};
  L7Service service(&scheduler, graph, config);
  service.start();

  const std::string reply = http_get(service.port(), "/org/acme/index.html");
  const auto parsed = http::parse_response(reply);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 302);
  EXPECT_EQ(parsed->headers.at("location"),
            "http://127.0.0.1:9001/org/acme/index.html");
  EXPECT_EQ(service.admitted(), 1u);
  service.stop();
}

TEST(L7Service, OutOfQuotaSelfRedirects) {
  const core::AgreementGraph graph = one_org_graph();
  // 10 req/s => one request per 100 ms window; the second immediate request
  // in the same window must bounce back to the redirector itself.
  test::FixedRateScheduler scheduler({0.0, 10.0});
  L7Service::Config config;
  config.backends = {{"127.0.0.1:9001", 1}};
  L7Service service(&scheduler, graph, config);
  service.start();

  const std::string first = http_get(service.port(), "/org/acme/a");
  const std::string second = http_get(service.port(), "/org/acme/b");
  const auto r1 = http::parse_response(first);
  const auto r2 = http::parse_response(second);
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->headers.at("location"), "http://127.0.0.1:9001/org/acme/a");
  const std::string self = "http://127.0.0.1:" +
                           std::to_string(service.port()) + "/org/acme/b";
  EXPECT_EQ(r2->headers.at("location"), self);
  EXPECT_EQ(service.admitted(), 1u);
  EXPECT_EQ(service.self_redirected(), 1u);
  service.stop();
}

TEST(L7Service, RejectsMalformedAndUnknown) {
  const core::AgreementGraph graph = one_org_graph();
  test::FixedRateScheduler scheduler({0.0, 100.0});
  L7Service::Config config;
  config.backends = {{"127.0.0.1:9001", 1}};
  L7Service service(&scheduler, graph, config);
  service.start();

  {
    net::Socket conn = net::Socket::connect_loopback(service.port());
    conn.write_all("NOT-HTTP\r\n\r\n");
    const auto resp = http::parse_response(conn.read_http_head());
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 400);
  }
  {
    const auto resp =
        http::parse_response(http_get(service.port(), "/org/nobody/x"));
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 404);
  }
  EXPECT_EQ(service.bad_requests(), 2u);
  service.stop();
}

TEST(L7Service, StalledClientDoesNotDelayOthers) {
  const core::AgreementGraph graph = one_org_graph();
  test::FixedRateScheduler scheduler({0.0, 10000.0});
  L7Service::Config config;
  config.backends = {{"127.0.0.1:9001", 1}};
  L7Service service(&scheduler, graph, config);
  service.start();

  // Half a request head, then silence: the service must keep serving.
  net::Socket stalled = net::Socket::connect_loopback(service.port());
  stalled.write_all("GET /org/acme/slow HTTP/1.1\r\nhost: 127.0.0.1\r\n");

  const auto begin = std::chrono::steady_clock::now();
  const auto reply =
      http::parse_response(http_get(service.port(), "/org/acme/fast"));
  const auto took = std::chrono::steady_clock::now() - begin;
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, 302);
  EXPECT_EQ(reply->headers.at("location"),
            "http://127.0.0.1:9001/org/acme/fast");
  EXPECT_LT(took, std::chrono::seconds(1));

  // The stalled client still gets its answer once its head is complete.
  stalled.write_all("\r\n");
  const auto late = http::parse_response(stalled.read_http_head());
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->status, 302);
  EXPECT_EQ(service.admitted(), 2u);
  service.stop();
}

TEST(L7Service, CutShortAndUnknownHeadsKeepTheirReplies) {
  const core::AgreementGraph graph = one_org_graph();
  test::FixedRateScheduler scheduler({0.0, 100.0});
  L7Service::Config config;
  config.backends = {{"127.0.0.1:9001", 1}};
  L7Service service(&scheduler, graph, config);
  service.start();

  // The peer closes its side before the blank line: decided as received.
  const auto cut = http::parse_response(test::send_then_half_close(
      service.port(), "GET /org/acme/x HTTP/1.1\r\nhost: 127.0.0.1\r\n"));
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->status, 400);

  const auto unknown = http::parse_response(test::send_then_half_close(
      service.port(), "GET /org/nobody/x HTTP/1.1\r\n\r\n"));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->status, 404);

  EXPECT_EQ(service.bad_requests(), 2u);
  EXPECT_EQ(service.admitted(), 0u);
  service.stop();
}

TEST(L7Service, AThrowingPlanCostsOneRequestOnly) {
  const core::AgreementGraph graph = one_org_graph();
  test::ThrowOnceScheduler scheduler({0.0, 10000.0});
  L7Service::Config config;
  config.backends = {{"127.0.0.1:9001", 1}};
  L7Service service(&scheduler, graph, config);
  service.start();

  // The first request's admission solves the first plan, which throws: the
  // client sees a close with no reply, and the service keeps serving.
  EXPECT_EQ(http_get(service.port(), "/org/acme/a"), "");
  const auto next =
      http::parse_response(http_get(service.port(), "/org/acme/b"));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->status, 302);
  EXPECT_EQ(next->headers.at("location"), "http://127.0.0.1:9001/org/acme/b");
  EXPECT_EQ(service.admitted(), 1u);
  service.stop();
}

TEST(L7Service, WorksWithTheRealScheduler) {
  // End-to-end with the actual response-time LP instead of a test stub.
  core::AgreementGraph graph = one_org_graph();
  const sched::ResponseTimeScheduler scheduler(
      graph, core::compute_access_levels(graph));
  L7Service::Config config;
  config.backends = {{"127.0.0.1:9001", 0}};  // S owns the hardware
  L7Service service(&scheduler, graph, config);
  service.start();

  int redirected_to_backend = 0;
  for (int i = 0; i < 20; ++i) {
    const auto resp =
        http::parse_response(http_get(service.port(), "/org/acme/page"));
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 302);
    if (resp->headers.at("location").find("9001") != std::string::npos)
      ++redirected_to_backend;
  }
  // acme is entitled to half of S's 1000 req/s — 20 quick requests all fit.
  EXPECT_EQ(redirected_to_backend, 20);
  service.stop();
}

TEST(L7Service, StopIsIdempotentAndRestartable) {
  const core::AgreementGraph graph = one_org_graph();
  test::FixedRateScheduler scheduler({0.0, 100.0});
  L7Service::Config config;
  config.backends = {{"127.0.0.1:9001", 1}};
  {
    L7Service service(&scheduler, graph, config);
    service.start();
    service.stop();
    service.stop();  // no-op
  }                  // destructor also calls stop()
}

}  // namespace
}  // namespace sharegrid::live
