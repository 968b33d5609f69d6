// Scheduler interface: one plan per time window from global queue lengths.
#pragma once

#include <vector>

#include "sched/plan.hpp"

namespace sharegrid::sched {

/// Computes admission plans from (estimated) global per-principal demand.
///
/// Implementations behave as functions of their configuration plus the
/// demand argument, so one instance may serve every redirector member of a
/// control plane. plan() takes no lock, so it has one caller at a time:
/// each sim site's ControlPlane, each live service's event-loop thread and
/// each socket-fleet process owns its scheduler. Implementations
/// may keep internal solver caches — warm-start bases, previous plans for
/// iteration-limit fallback (Plan::lp_fallback) — which is why plan() is
/// const over `mutable` state; the caches influence only how fast a plan is
/// found, never which allocations are feasible.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// @param demand  global queue length per principal, expressed as
  ///                requests/second of offered load.
  virtual Plan plan(const std::vector<double>& demand) const = 0;

  /// Number of principals the scheduler was configured with.
  virtual std::size_t size() const = 0;
};

}  // namespace sharegrid::sched
