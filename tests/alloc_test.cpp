// Heap-allocation regression test for the simulated request path.
//
// Every event on the path client -> redirector -> server -> reply fits
// sim::Callback's inline buffer and touches no reference count, so once a
// site has warmed up (event-node pool, connection table, ring buffers and
// rate bins at their steady sizes) an admitted request costs no heap
// allocation at all. This binary replaces the global operator new with a
// counting one — which is why it is its own executable rather than part of
// sharegrid_tests — and bounds the allocations a small L4 site and a small
// L7 site make per admitted request over a steady interval. What remains is
// per-window control-plane work, amortized over many requests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "coord/control_plane.hpp"
#include "coord/window_driver.hpp"
#include "nodes/client.hpp"
#include "nodes/l4_redirector.hpp"
#include "nodes/l7_redirector.hpp"
#include "nodes/metrics.hpp"
#include "nodes/server.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (::posix_memalign(&p, alignment, size) != 0) {
    p = nullptr;
  }
  return p;
}

// Out of line so the compiler cannot pair an inlined operator new with this
// free() and flag the replacement pair as mismatched.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size, alignof(std::max_align_t))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  if (void* p = counted_alloc(size, static_cast<std::size_t>(alignment)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return ::operator new(size, alignment);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace sharegrid::nodes {
namespace {

/// Allocations and admissions over one measured interval.
struct Tally {
  std::uint64_t allocations = 0;
  std::uint64_t admitted = 0;
};

/// One redirector of type @p Redirector fronting two servers of one owner,
/// with four closed-loop clients offering 8000 req/s against an ample fixed
/// quota (conservative mode with a lone redirector grants the full plan),
/// on the default 100 ms control-plane window. Warms up for one simulated
/// second, then counts over the next two.
template <class Redirector>
Tally steady_tally() {
  sim::Simulator sim;
  Metrics metrics(1);
  test::FixedRateScheduler scheduler({1e6});
  coord::ControlPlane plane(&scheduler, coord::ControlPlaneConfig{});
  Server server0(&sim, &metrics, {0, 1e5, {1, 80}});
  Server server1(&sim, &metrics, {0, 1e5, {2, 80}});
  ServerPool pool;
  pool.add(&server0);
  pool.add(&server1);
  typename Redirector::Config rc;
  rc.name = "r";
  Redirector redirector(&sim, &metrics, &pool, plane.add_member(), rc);
  std::vector<std::unique_ptr<ClientMachine>> clients;
  for (std::size_t k = 0; k < 4; ++k) {
    ClientMachine::Config cc;
    cc.principal = 0;
    cc.index = k;
    cc.rate = 2000.0;
    clients.push_back(std::make_unique<ClientMachine>(
        &sim, &metrics, &redirector, cc, Rng(11 + k)));
    clients.back()->set_active(true);
  }
  coord::SimWindowDriver driver(&sim, &plane);
  driver.start(100 * kMillisecond);

  sim.run_until(seconds(1.0));
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t admitted_before = redirector.admitted();
  sim.run_until(seconds(3.0));
  return {g_allocations.load(std::memory_order_relaxed) - allocations_before,
          redirector.admitted() - admitted_before};
}

TEST(RequestPathAllocations, L4SiteAllocatesUnderOnePerHundredAdmitted) {
  const Tally tally = steady_tally<L4Redirector>();
  ASSERT_GE(tally.admitted, 1000u);
  EXPECT_LT(tally.allocations * 100, tally.admitted)
      << tally.allocations << " allocations for " << tally.admitted
      << " admitted requests";
}

TEST(RequestPathAllocations, L7SiteAllocatesUnderOnePerHundredAdmitted) {
  const Tally tally = steady_tally<L7Redirector>();
  ASSERT_GE(tally.admitted, 1000u);
  EXPECT_LT(tally.allocations * 100, tally.admitted)
      << tally.allocations << " allocations for " << tally.admitted
      << " admitted requests";
}

}  // namespace
}  // namespace sharegrid::nodes
