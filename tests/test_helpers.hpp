// Shared helpers for sharegrid tests.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/assert.hpp"

namespace sharegrid::test {

/// Deterministic scheduler granting principal i a fixed rate on server i,
/// capped by demand — lets node tests pin admission behaviour precisely.
class FixedRateScheduler final : public sched::Scheduler {
 public:
  explicit FixedRateScheduler(std::vector<double> rates)
      : rates_(std::move(rates)) {}

  sched::Plan plan(const std::vector<double>& demand) const override {
    sched::Plan p;
    p.demand = demand;
    p.rate = Matrix(rates_.size(), rates_.size(), 0.0);
    for (std::size_t i = 0; i < rates_.size(); ++i)
      p.rate(i, i) = std::min(rates_[i], demand[i]);
    return p;
  }
  std::size_t size() const override { return rates_.size(); }

 private:
  std::vector<double> rates_;
};

/// FixedRateScheduler whose first plan() throws ContractViolation, as a
/// failed LP invariant would; every later plan() succeeds.
class ThrowOnceScheduler final : public sched::Scheduler {
 public:
  explicit ThrowOnceScheduler(std::vector<double> rates)
      : inner_(std::move(rates)) {}

  sched::Plan plan(const std::vector<double>& demand) const override {
    if (!thrown_.exchange(true)) throw ContractViolation("plan failed");
    return inner_.plan(demand);
  }
  std::size_t size() const override { return inner_.size(); }

 private:
  FixedRateScheduler inner_;
  mutable std::atomic<bool> thrown_{false};
};

/// Threads of this process, as the kernel lists them.
inline std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Sends @p bytes to 127.0.0.1:@p port on a fresh connection, shuts down
/// the sending side, and returns whatever arrives before the peer closes.
/// net::Socket only offers a full shutdown, which would discard the reply.
inline std::string send_then_half_close(std::uint16_t port,
                                        const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string reply;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(bytes.size()) &&
      ::shutdown(fd, SHUT_WR) == 0) {
    char chunk[1024];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
      reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

}  // namespace sharegrid::test
