// Tests for util::WorkerPool, the fan-out pool under the sharded
// simulator's lanes (sim/sharded_simulator.hpp): every index runs exactly
// once, a zero-thread pool runs inline, and the lowest throwing index's
// exception is the one rethrown.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/worker_pool.hpp"

namespace sharegrid {
namespace {

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  std::vector<int> counts(257, 0);
  pool.run_indexed(counts.size(),
                   [&](std::size_t i) { ++counts[i]; });  // disjoint slots
  for (std::size_t i = 0; i < counts.size(); ++i) EXPECT_EQ(counts[i], 1);
  // Reuse across runs, including an empty one.
  pool.run_indexed(0, [&](std::size_t) { ADD_FAILURE(); });
  pool.run_indexed(counts.size(), [&](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < counts.size(); ++i) EXPECT_EQ(counts[i], 2);
}

TEST(WorkerPool, ZeroThreadsRunsInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  std::vector<int> counts(16, 0);
  pool.run_indexed(counts.size(), [&](std::size_t i) { ++counts[i]; });
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(WorkerPool, RethrowsLowestIndexException) {
  WorkerPool pool(4);
  // Indexes 3 and 9 throw; every index must still run, and the reported
  // error must be index 3's regardless of which thread hit which first.
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::vector<int> ran(16, 0);
    try {
      pool.run_indexed(ran.size(), [&](std::size_t i) {
        ++ran[i];
        if (i == 3 || i == 9)
          throw ContractViolation("boom " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const ContractViolation& e) {
      EXPECT_STREQ(e.what(), "boom 3");
    }
    for (int r : ran) EXPECT_EQ(r, 1);
  }
}

}  // namespace
}  // namespace sharegrid
