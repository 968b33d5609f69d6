// The unit of work flowing through the simulated system.
#pragma once

#include <cstdint>
#include <limits>

#include "core/principal.hpp"
#include "util/time.hpp"

namespace sharegrid::nodes {

/// One client request (for L4, one TCP connection carrying one request).
///
/// Requests ride inside event closures by value, so the layout is kept at
/// 40 bytes: with `this` and one more pointer a closure still fits
/// sim::Callback's inline buffer (nodes/inline_schedule.hpp). Principal and
/// client indices are 32-bit for that reason.
struct Request {
  std::uint64_t id = 0;
  /// Scheduling units (reply size / mean reply size; §4 "large requests are
  /// treated as multiple small ones").
  double weight = 1.0;
  /// Modeled reply size, for bandwidth accounting.
  double reply_bytes = 6144.0;
  /// When the client first issued the request (for latency accounting;
  /// retries keep the original timestamp).
  SimTime created = 0;
  /// Organization owning the target URL; decides whose queue/agreement the
  /// request is charged against. The unset value is core::kNoPrincipal
  /// narrowed to 32 bits.
  std::uint32_t principal = std::numeric_limits<std::uint32_t>::max();
  /// Index of the originating client machine.
  std::uint32_t client = 0;
};

static_assert(sizeof(Request) == 40,
              "a Request plus two pointers must fit sim::Callback inline");

}  // namespace sharegrid::nodes
