// Clock drivers for the control plane (the tentpole seam of DESIGN.md D10).
//
// ControlPlane knows nothing about time; these two shims decide when window
// boundaries happen:
//
//  * SimWindowDriver — one PeriodicTask per member on the DES Simulator, in
//    member-index order, so event sequence numbers (and therefore D4
//    bit-reproducibility) match the historical per-redirector wiring.
//  * WallClockDriver — clock-agnostic window roller for the live stack: the
//    caller polls with the current time in microseconds (steady_clock in
//    production, a fake in tests), elapsed windows are advanced with bounded
//    catch-up, and a one-process RoundProtocol round runs every window after
//    the new window's quotas are in place (so window k plans against the
//    aggregate sampled at the end of window k-1 — the same one-window
//    snapshot lag a zero-delay sim tree produces).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coord/control_plane.hpp"
#include "coord/round_protocol.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace sharegrid::coord {

/// DES driver: periodic window tasks on the simulator.
class SimWindowDriver {
 public:
  SimWindowDriver(sim::Simulator* sim, ControlPlane* plane);

  /// Creates one PeriodicTask per member (member-index order — load-bearing
  /// for D4: creation order fixes equal-time event ordering) firing every
  /// plane window starting at @p first_window.
  void start(SimTime first_window);
  void stop();

 private:
  sim::Simulator* sim_;
  ControlPlane* plane_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
};

/// Live driver: rolls wall-clock windows on poll(). Not internally
/// synchronized — each live service polls it from its one loop thread.
class WallClockDriver {
 public:
  /// Idle-gap bound: at most this many windows advance per poll.
  static constexpr std::int64_t kMaxCatchup = 16;

  /// @param protocol    one-process round protocol hosting every member of
  ///                    @p plane, run once per window; may be nullptr
  ///                    (members then stay on their stale policy).
  /// @param window_usec scheduling window in microseconds.
  WallClockDriver(ControlPlane* plane, RoundProtocol* protocol,
                  std::int64_t window_usec);

  /// Re-anchors the window clock at @p now_usec (call when serving starts).
  void reset(std::int64_t now_usec);

  /// Advances every window boundary that elapsed by @p now_usec; returns how
  /// many windows were rolled. The first poll always opens a window.
  std::int64_t poll(std::int64_t now_usec);

  std::uint64_t windows_begun() const { return windows_begun_; }

 private:
  ControlPlane* plane_;
  RoundProtocol* protocol_;
  std::int64_t window_usec_;
  std::int64_t window_start_usec_ = 0;
  bool first_window_done_ = false;
  std::uint64_t windows_begun_ = 0;
};

}  // namespace sharegrid::coord
