// Event scheduling for the node models.
//
// Every closure a node puts on the simulator must fit sim::Callback's inline
// buffer, so the request path never touches the heap. Nodes schedule through
// these wrappers, which check that at compile time: a capture that outgrows
// the buffer (a new Request field, an extra pointer) fails the build instead
// of silently allocating once per event.
//
// Node-lifetime contract: closures capture raw node pointers and no
// liveness flag. A node must outlive every run_until/run_all of its
// simulator that could fire one of its events. Both scenario runners
// destroy their sites only after the run ends, and destroying a Simulator
// destroys its pending closures without calling them, so a node may be
// destroyed before or after its simulator as long as the simulator does not
// run again in between.
#pragma once

#include <type_traits>
#include <utility>

#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace sharegrid::nodes {

/// sim::Simulator::schedule_at for a closure that must be stored inline.
template <class F>
void schedule_at(sim::Simulator* sim, SimTime t, F&& fn) {
  static_assert(sim::Callback::fits_inline<std::decay_t<F>>(),
                "node closures must fit sim::Callback's inline buffer");
  sim->schedule_at(t, std::forward<F>(fn));
}

/// sim::Simulator::schedule_after for a closure that must be stored inline.
template <class F>
void schedule_after(sim::Simulator* sim, SimDuration delay, F&& fn) {
  static_assert(sim::Callback::fits_inline<std::decay_t<F>>(),
                "node closures must fit sim::Callback's inline buffer");
  sim->schedule_after(delay, std::forward<F>(fn));
}

}  // namespace sharegrid::nodes
