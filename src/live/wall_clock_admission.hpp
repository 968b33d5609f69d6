// Wall-clock admission facade shared by the live L7 service and L4 proxy.
//
// The window loop itself — demand estimators, snapshot exchange, plan solve,
// proportional slices, integer quotas — is coord::ControlPlane, the same
// implementation the DES experiments run (DESIGN.md D10). This facade is the
// thin live-side driver: it owns the steady_clock, rolls elapsed windows
// through a WallClockDriver, and runs the snapshot exchange of its one
// control-plane member on a one-process coord::RoundProtocol (the
// cross-process coord::SocketTransport drives the same protocol over TCP).
// A demand-spike fast path re-plans the current window when a cold
// estimator would otherwise starve a principal whose load just appeared,
// bounded by the control plane's per-window re-plan budget.
//
// Not synchronized: each service calls its facade from its one event-loop
// thread only (live/event_loop.hpp), so admission takes no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "coord/control_plane.hpp"
#include "coord/round_protocol.hpp"
#include "coord/window_driver.hpp"
#include "sched/scheduler.hpp"
#include "util/assert.hpp"

namespace sharegrid::live {

/// Wall-clock-driven admission over one control-plane member.
class WallClockAdmission {
 public:
  /// @param scheduler   planning logic (not owned).
  /// @param window_usec scheduling window in wall-clock microseconds
  ///                    (paper: 100 ms).
  WallClockAdmission(const sched::Scheduler* scheduler,
                     std::int64_t window_usec)
      : protocol_(1, scheduler->size(), {}),
        plane_(scheduler, plane_config(window_usec)),
        driver_(&plane_, &protocol_, window_usec),
        member_(plane_.add_member()),
        epoch_(std::chrono::steady_clock::now()) {
    plane_.connect(&protocol_);
    protocol_.start();
  }

  /// Resets the window clock (call when the service starts serving).
  void reset_clock() { driver_.reset(now_usec()); }

  /// Records one arrival for @p principal and attempts admission; returns
  /// the resource owner to route to, or nullopt when out of quota. Out-of-
  /// quota requests try the demand-spike fast path once, within the
  /// per-window re-plan budget.
  std::optional<core::PrincipalId> try_admit(core::PrincipalId principal) {
    driver_.poll(now_usec());
    member_->record_arrival(principal, 1.0);
    if (const auto owner = member_->try_admit(principal)) return owner;
    if (!member_->spike_replan()) return std::nullopt;
    return member_->try_admit(principal);
  }

  /// Introspection for tests and metrics.
  const coord::ControlPlane& plane() const { return plane_; }
  const coord::ControlPlane::Member& member() const { return *member_; }
  std::uint64_t windows_begun() const { return driver_.windows_begun(); }
  std::uint64_t snapshot_rounds() const {
    return protocol_.rounds_completed();
  }

 private:
  static coord::ControlPlaneConfig plane_config(std::int64_t window_usec) {
    SHAREGRID_EXPECTS(window_usec > 0);
    coord::ControlPlaneConfig plane;
    plane.window = window_usec;  // SimTime ticks are microseconds
    return plane;
  }

  std::int64_t now_usec() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  coord::RoundProtocol protocol_;
  coord::ControlPlane plane_;
  coord::WallClockDriver driver_;
  coord::ControlPlane::Member* member_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace sharegrid::live
