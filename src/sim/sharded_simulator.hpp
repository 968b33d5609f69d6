// Conservatively synchronized multi-domain simulation (DESIGN.md D13).
//
// The single-threaded Simulator tops out at one core; the ROADMAP's
// million-client scenarios partition naturally by cluster, with the only
// inter-cluster traffic being combining-tree snapshot messages whose links
// have a declared delay. That delay is classic conservative-PDES lookahead
// (Chandy/Misra): if every cross-domain message sent during epoch
// [T, T + L) arrives no earlier than T + L, each domain can run the whole
// epoch without hearing from its peers. The engine therefore:
//
//  1. gives every DOMAIN (cluster) its own Simulator — private timing
//     wheel, freelist, and clock — sharing no mutable state with peers;
//  2. steps all domains in lockstep epochs of length `lookahead`, fanning
//     the per-epoch runs out on a util::WorkerPool;
//  3. defers every cross-domain message into a per-source outbox and
//     delivers all of them at the epoch barrier, iterating source domains
//     in index order with per-source emission order preserved.
//
// Step 3 is what makes runs *bitwise* shard-count-invariant: delivery
// order — and hence every event sequence number in every destination
// domain — depends only on (source domain, emission order), never on which
// worker lane ran which domain or how many lanes existed. `shards` is pure
// parallelism; `shards = 1` IS the serial oracle, and the scenario-level
// audit (audit::audit_shard_merge_match) pins sharded metrics bitwise
// against it.
//
// The lookahead rule is enforced unconditionally (not only in audit
// builds): an under-declared link delay would otherwise silently change
// results, the one failure mode a PDES engine must never have.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"
#include "util/worker_pool.hpp"

namespace sharegrid::sim {

/// Epoch-stepped fleet of per-domain Simulators with conservative lookahead.
class ShardedSimulator {
 public:
  struct Options {
    /// Conservative lookahead bound: every cross-domain post made while an
    /// epoch [T, T + lookahead) runs must be for time >= T + lookahead.
    /// In the scenarios this is the combining tree's link delay.
    SimDuration lookahead = 0;
    /// Parallel lanes (worker threads incl. the caller), capped at the
    /// domain count. 1 = run domains serially in index order — the audit
    /// oracle. Results are identical for every value by construction.
    std::size_t shards = 1;
  };

  ShardedSimulator(std::size_t domains, Options options);

  std::size_t domain_count() const { return domains_.size(); }
  Simulator& domain(std::size_t d) {
    SHAREGRID_EXPECTS(d < domains_.size());
    return *domains_[d];
  }

  /// Barrier time: every domain has run to at least this point.
  SimTime now() const { return now_; }

  /// Sends fn to run at absolute time @p when in domain @p dst. Must be
  /// called either before run_until() (setup) or from an event executing in
  /// domain @p src — the per-source outboxes are single-writer by that
  /// contract. Enforces the lookahead rule unconditionally: @p when must
  /// not precede the current epoch's end.
  void post(std::size_t src, std::size_t dst, SimTime when,
            std::function<void()> fn);

  /// Runs every domain to @p deadline in lockstep epochs, exchanging
  /// cross-domain messages at each barrier.
  void run_until(SimTime deadline);

  /// Sum of events executed across all domains.
  std::uint64_t events_processed() const;
  /// Cross-domain messages posted / delivered so far (equal outside of an
  /// epoch — see audit_event_conservation).
  std::uint64_t posts_sent() const {
    return posts_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t posts_delivered() const { return posts_delivered_; }
  /// Epoch barriers crossed.
  std::uint64_t epochs() const { return epochs_; }

  /// Cross-shard event conservation: every message posted by a source
  /// domain was delivered into its destination's event stream — none
  /// dropped by a lane, none duplicated by a retry. Called at every barrier
  /// in audit builds; throws ContractViolation on mismatch.
  void audit_event_conservation() const;

 private:
  /// One deferred cross-domain message.
  struct Pending {
    std::size_t dst = 0;
    SimTime when = 0;
    std::function<void()> fn;
  };

  Options options_;
  std::vector<std::unique_ptr<Simulator>> domains_;
  /// outboxes_[src]: messages emitted by domain src this epoch, in emission
  /// order. Written only by the lane running src (or the caller before the
  /// run); drained single-threaded at the barrier.
  std::vector<std::vector<Pending>> outboxes_;
  WorkerPool pool_;
  SimTime now_ = 0;
  /// End of the epoch currently running (== now_ between epochs); the
  /// lookahead floor for post(). Written at the barrier, read by lanes —
  /// ordered by the pool's fan-out/join.
  SimTime epoch_end_ = 0;
  std::atomic<std::uint64_t> posts_sent_{0};
  std::uint64_t posts_delivered_ = 0;
  std::uint64_t epochs_ = 0;
};

}  // namespace sharegrid::sim
