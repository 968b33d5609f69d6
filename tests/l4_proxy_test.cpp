// Tests for the live user-space L4-style proxy: connection-level admission
// and protocol-agnostic byte relaying over loopback TCP.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "live/l4_proxy.hpp"
#include "net/tcp.hpp"
#include "test_helpers.hpp"

namespace sharegrid::live {
namespace {

/// Echo backend: prefixes every received blob with @p prefix.
class EchoBackend {
 public:
  explicit EchoBackend(std::string prefix = "echo:")
      : listener_(net::Socket::listen_on_loopback()),
        prefix_(std::move(prefix)) {
    thread_ = std::thread([this] { loop(); });
  }
  ~EchoBackend() {
    running_.store(false);
    try {
      net::Socket::connect_loopback(port());
    } catch (const ContractViolation&) {
    }
    thread_.join();
  }
  std::uint16_t port() const { return listener_.local_port(); }

 private:
  void loop() {
    while (running_.load()) {
      try {
        net::Socket conn = listener_.accept();
        if (!running_.load()) break;
        while (true) {
          const std::string got = conn.read_some().data;
          if (got.empty()) break;
          conn.write_all(prefix_ + got);
        }
      } catch (const ContractViolation&) {
      }
    }
  }

  net::Socket listener_;
  std::string prefix_;
  std::atomic<bool> running_{true};
  std::thread thread_;
};

/// Threads of this process, as the kernel lists them.
std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Polls @p done every millisecond for up to two seconds.
template <class Predicate>
bool eventually(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(L4Proxy, RelaysBytesBothWaysUnparsed) {
  EchoBackend backend;
  test::FixedRateScheduler scheduler({1000.0});
  L4Proxy::Config config;
  config.services = {{0, backend.port(), 0}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  net::Socket client = net::Socket::connect_loopback(proxy.service_port(0));
  client.write_all("arbitrary \x01 bytes, not HTTP");
  const std::string reply = client.read_some().data;
  EXPECT_EQ(reply, "echo:arbitrary \x01 bytes, not HTTP");

  // Same connection again: affinity means it stays on the same backend.
  client.write_all("second");
  EXPECT_EQ(client.read_some().data, "echo:second");

  client.close();
  proxy.stop();
  EXPECT_EQ(proxy.admitted(), 1u);  // one connection, many messages
  EXPECT_EQ(proxy.refused(), 0u);
}

TEST(L4Proxy, RefusesConnectionsBeyondQuota) {
  EchoBackend backend;
  // 10 req/s => one connection per 100 ms window.
  test::FixedRateScheduler scheduler({10.0});
  L4Proxy::Config config;
  config.services = {{0, backend.port(), 0}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  net::Socket first = net::Socket::connect_loopback(proxy.service_port(0));
  first.write_all("a");
  EXPECT_EQ(first.read_some().data, "echo:a");  // admitted

  // The second immediate connection is refused: the proxy closes it, so the
  // first read returns empty.
  net::Socket second = net::Socket::connect_loopback(proxy.service_port(0));
  const std::string nothing = second.read_some().data;
  EXPECT_TRUE(nothing.empty());

  first.close();
  second.close();
  proxy.stop();
  EXPECT_EQ(proxy.admitted(), 1u);
  EXPECT_EQ(proxy.refused(), 1u);
}

TEST(L4Proxy, MultipleServicesMapPortsToPrincipals) {
  EchoBackend backend_a;
  EchoBackend backend_b;
  // Principal 0 has generous quota, principal 1 none at all.
  test::FixedRateScheduler scheduler({1000.0, 0.0});
  L4Proxy::Config config;
  config.services = {{0, backend_a.port(), 0}, {1, backend_b.port(), 1}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  net::Socket ok = net::Socket::connect_loopback(proxy.service_port(0));
  ok.write_all("hi");
  EXPECT_EQ(ok.read_some().data, "echo:hi");

  net::Socket denied = net::Socket::connect_loopback(proxy.service_port(1));
  EXPECT_TRUE(denied.read_some().data.empty());

  ok.close();
  denied.close();
  proxy.stop();
  EXPECT_EQ(proxy.admitted(), 1u);
  EXPECT_EQ(proxy.refused(), 1u);
}

TEST(L4Proxy, RelaysLargePayloadIntactBothWays) {
  // 4 MiB each way is far more than the socket buffers hold, so the relay
  // must park bytes in its pending buffers and finish on EPOLLOUT.
  EchoBackend backend("");
  test::FixedRateScheduler scheduler({1000.0});
  L4Proxy::Config config;
  config.services = {{0, backend.port(), 0}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  std::string payload(4 << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>((i * 131 + i / 4096) & 0xff);
  net::Socket client = net::Socket::connect_loopback(proxy.service_port(0));
  std::thread writer([&] { client.write_all(payload); });
  std::string echoed;
  while (echoed.size() < payload.size()) {
    const net::ReadResult got = client.read_some();
    if (got.status != net::ReadStatus::kData) break;
    echoed += got.data;
  }
  writer.join();
  EXPECT_EQ(echoed.size(), payload.size());
  EXPECT_TRUE(echoed == payload);

  client.close();
  proxy.stop();
  EXPECT_EQ(proxy.admitted(), 1u);
}

TEST(L4Proxy, ConcurrentRelaysAddNoThreads) {
  // The backend never accepts: the kernel completes each handshake into
  // the listen backlog, so a relay stays open with no backend thread.
  const net::Socket backend = net::Socket::listen_on_loopback(0, 128);
  test::FixedRateScheduler scheduler({100000.0});
  L4Proxy::Config config;
  config.services = {{0, backend.local_port(), 0}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();
  const std::size_t threads_after_start = thread_count();

  // Quotas follow the demand estimate, so early connections may be
  // refused; dial one at a time and keep the admitted ones open.
  std::vector<net::Socket> relays;
  for (int attempt = 0; attempt < 2000 && relays.size() < 64; ++attempt) {
    const std::uint64_t decided = proxy.admitted() + proxy.refused();
    const std::uint64_t admitted = proxy.admitted();
    net::Socket client = net::Socket::connect_loopback(proxy.service_port(0));
    ASSERT_TRUE(eventually(
        [&] { return proxy.admitted() + proxy.refused() > decided; }));
    if (proxy.admitted() > admitted) {
      client.write_all("held");
      relays.push_back(std::move(client));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(relays.size(), 64u);
  EXPECT_EQ(thread_count(), threads_after_start);
  proxy.stop();
}

TEST(L4Proxy, StopClosesIdleRelaysPromptly) {
  EchoBackend backend;
  test::FixedRateScheduler scheduler({1000.0});
  L4Proxy::Config config;
  config.services = {{0, backend.port(), 0}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  net::Socket client = net::Socket::connect_loopback(proxy.service_port(0));
  client.write_all("a");
  ASSERT_EQ(client.read_some().data, "echo:a");

  // The relay is admitted and idle; stop() must not wait for it.
  const auto begin = std::chrono::steady_clock::now();
  proxy.stop();
  const auto took = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(took, std::chrono::milliseconds(100));
  EXPECT_EQ(client.read_some().status, net::ReadStatus::kClosed);
}

TEST(L4Proxy, BackendDialFailureCountsAsRefused) {
  std::uint16_t closed_port = 0;
  {
    const net::Socket gone = net::Socket::listen_on_loopback();
    closed_port = gone.local_port();
  }  // nothing listens there any more
  test::FixedRateScheduler scheduler({1000.0});
  L4Proxy::Config config;
  config.services = {{0, closed_port, 0}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  net::Socket client = net::Socket::connect_loopback(proxy.service_port(0));
  EXPECT_NE(client.read_some().status, net::ReadStatus::kData);
  EXPECT_TRUE(eventually([&] { return proxy.refused() == 1; }));
  EXPECT_EQ(proxy.admitted(), 0u);
  proxy.stop();
}

TEST(L4Proxy, HalfClosedClientStillReadsTheReply) {
  EchoBackend backend;
  test::FixedRateScheduler scheduler({1000.0});
  L4Proxy::Config config;
  config.services = {{0, backend.port(), 0}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  // The client shuts down its sending side right after the request. The
  // proxy passes that FIN on; the backend answers, then closes, and both
  // the reply and the close come back through the proxy.
  EXPECT_EQ(test::send_then_half_close(proxy.service_port(0), "ping"),
            "echo:ping");
  proxy.stop();
  EXPECT_EQ(proxy.admitted(), 1u);
  EXPECT_EQ(proxy.refused(), 0u);
}

TEST(L4Proxy, AThrowingPlanCostsOneConnectionOnly) {
  EchoBackend backend;
  test::ThrowOnceScheduler scheduler({1000.0});
  L4Proxy::Config config;
  config.services = {{0, backend.port(), 0}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  // Admitting the first connection solves the first plan, which throws:
  // that connection is closed unrelayed and the proxy keeps serving.
  net::Socket first = net::Socket::connect_loopback(proxy.service_port(0));
  EXPECT_NE(first.read_some().status, net::ReadStatus::kData);
  EXPECT_TRUE(eventually([&] { return proxy.refused() == 1; }));

  net::Socket second = net::Socket::connect_loopback(proxy.service_port(0));
  second.write_all("b");
  EXPECT_EQ(second.read_some().data, "echo:b");
  second.close();
  proxy.stop();
  EXPECT_EQ(proxy.admitted(), 1u);
  EXPECT_EQ(proxy.refused(), 1u);
}

TEST(L4Proxy, ValidatesConfig) {
  test::FixedRateScheduler scheduler({10.0});
  L4Proxy::Config empty;
  EXPECT_THROW(L4Proxy(&scheduler, empty), ContractViolation);

  L4Proxy::Config bad_principal;
  bad_principal.services = {{7, 1234, 0}};
  EXPECT_THROW(L4Proxy(&scheduler, bad_principal), ContractViolation);
}

}  // namespace
}  // namespace sharegrid::live
