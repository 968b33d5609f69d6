// Per-redirector window driver: turns fractional scheduler plans into
// integer per-window admission quotas (§3.1.2 queuing + §3.2 distribution).
//
// Every time window the redirector:
//   1. forms a global demand estimate from the latest combining-tree snapshot
//      and its own local queues;
//   2. asks the shared Scheduler for a plan on that global estimate;
//   3. takes its proportional slice (local_i / global_i, §3.2) of each
//      plan cell and converts it to an integer quota with error-carrying
//      accumulators so long-run admitted rates match the plan exactly
//      (DESIGN.md D5).
//
// When no snapshot has arrived yet the driver is *conservative* (paper §5.1,
// Figure 8 phase 1): it assumes every principal is saturated — pinning each
// to its mandatory level — and takes only a 1/R slice of that, where R is
// the number of redirectors.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/principal.hpp"
#include "sched/plan.hpp"
#include "sched/scheduler.hpp"
#include "util/matrix.hpp"
#include "util/time.hpp"

namespace sharegrid::sched {

/// Integer-quota accumulator: take(x) returns floor(carry + x) and retains
/// the fractional remainder, so sum(take(x_t)) tracks sum(x_t) within 1.
class QuotaCarry {
 public:
  std::uint64_t take(double amount);

  /// Drops the banked fraction. Call whenever the quantity being integerized
  /// is superseded — e.g. across a mid-window replan(): fractional credit
  /// earned against the old plan must not combine with the new plan's
  /// fractions, or the two could round up to an extra admission the LP never
  /// granted (take(0.6), replan, take(0.6) must yield 0 + 0, not 0 + 1).
  void reset() { carry_ = 0.0; }

 private:
  double carry_ = 0.0;
};

/// EWMA estimator of per-principal offered load (requests/sec), used in the
/// credit-based L7 mode where queues are implicit (§4.1, DESIGN.md D3).
class ArrivalEstimator {
 public:
  /// EWMA weight of the newest window.
  static constexpr double kAlpha = 0.3;

  /// Records the arrivals observed in one window of length @p window.
  void observe(double arrivals, SimDuration window);

  /// Current rate estimate in requests/sec.
  double rate() const { return rate_; }

 private:
  double rate_ = 0.0;
  bool primed_ = false;
};

/// Snapshot of global per-principal demand (requests/sec), as distributed by
/// the combining tree. `valid` is false before the first aggregate arrives.
struct GlobalDemand {
  std::vector<double> demand;
  bool valid = false;
};

/// What a redirector assumes before the first global aggregate arrives.
enum class StalePolicy {
  /// Assume every principal is saturated and take a 1/R slice of the plan —
  /// each principal gets at most mandatory/R (the paper's behaviour,
  /// Figure 8 phase 1). Can never over-admit, at the cost of under-using an
  /// idle system.
  kConservative,
  /// Assume local queues are the whole system (share = 1, demand = local).
  /// Uses an idle system fully but over-admits by up to a factor of R when
  /// other redirectors carry load — the ablation bench quantifies the
  /// resulting overload.
  kOptimistic,
};

/// Per-redirector admission state for one time window.
class WindowScheduler {
 public:
  /// @param scheduler        shared planning logic (not owned).
  /// @param window           scheduling window length (paper: 100 ms).
  /// @param redirector_count R, for the conservative no-snapshot slice.
  /// @param stale_policy     behaviour before the first global aggregate.
  WindowScheduler(const Scheduler* scheduler, SimDuration window,
                  std::size_t redirector_count,
                  StalePolicy stale_policy = StalePolicy::kConservative);

  /// Starts a new window. @p local_demand is this redirector's own queue
  /// state in requests/sec; @p global is the latest combining-tree snapshot.
  void begin_window(const std::vector<double>& local_demand,
                    const GlobalDemand& global);

  /// Mid-window re-plan: recomputes this window's quotas against fresher
  /// demand estimates while preserving everything already consumed this
  /// window (and any debt carried into it), so a demand spike can open
  /// quota without letting repeated re-plans over-admit. Used by the live
  /// service when a cold estimator starved the current window.
  void replan(const std::vector<double>& local_demand,
              const GlobalDemand& global);

  /// Attempts to admit one request of principal @p i costing @p weight
  /// scheduling units (large requests are treated as multiple small ones,
  /// §4). On success returns the id of the principal whose server should
  /// process it. Admission requires strictly positive remaining quota; the
  /// full weight is then deducted, possibly borrowing from the next window
  /// (negative quota carries over), so long-run rates match the plan.
  std::optional<core::PrincipalId> try_admit(core::PrincipalId i,
                                             double weight = 1.0);

  /// Remaining admission quota (scheduling units) for principal i in this
  /// window; can be negative after a large borrow.
  double remaining_quota(core::PrincipalId i) const;

  SimDuration window() const { return window_; }
  const Plan& last_plan() const { return plan_; }
  /// This window's plan slices in scheduling units (quota + consumed ==
  /// slices + debt); exposed for the control-plane conservation audits.
  const Matrix& slices() const { return slices_; }

  /// Windows (including re-plans) whose plan was a stale fallback because
  /// the LP solver hit its iteration budget (Plan::lp_fallback).
  std::uint64_t plan_fallbacks() const { return plan_fallbacks_; }

 private:
  const Scheduler* scheduler_;
  SimDuration window_;
  std::size_t redirector_count_;
  StalePolicy stale_policy_;

  /// Recomputes slices_ for the current demand/share state, reusing the
  /// member scratch buffers — windows fire ten times a second per
  /// redirector, and steady state should not touch the heap (DESIGN.md D8).
  void compute_slices(const std::vector<double>& local_demand,
                      const GlobalDemand& global);

  std::vector<double> demand_scratch_;
  std::vector<double> share_scratch_;

  Matrix quota_;     // (i, k) units remaining this window
  Matrix debt_;      // (i, k) borrow carried into this window (<= 0)
  Matrix consumed_;  // (i, k) units admitted since the window began
  Matrix slices_;    // (i, k) this window's plan slice (audit reference:
                     // quota + consumed == slices + debt at all times)
  Plan plan_;
  std::uint64_t plan_fallbacks_ = 0;
};

}  // namespace sharegrid::sched
