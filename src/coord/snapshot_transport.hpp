// Transport seam for combining-tree snapshot exchange (§3.2).
//
// The control plane's window loop needs exactly one thing from the network:
// periodically sample every member's local demand vector, sum the samples,
// and deliver the aggregate back to every member tagged with a monotonically
// increasing round number. SnapshotTransport abstracts that exchange so the
// same coord::ControlPlane runs over
//
//  * CombiningTree     — the event-driven combining tree on a Simulator
//    (combining_tree.hpp; the DES experiments model link delay and tree
//    shape), and ShardedStarTransport across sharded simulation domains;
//  * RoundProtocol     — the sans-IO round state machine
//    (round_protocol.hpp). Hosting every member in one process it is the
//    synchronous exchange of the live services and replay fleets; under
//    SocketTransport (socket_transport.hpp) it runs across processes over
//    loopback TCP, with deadline-abandoned rounds, lease-based root election
//    and a staleness fallback to 1/R.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace sharegrid::coord {

/// Abstract snapshot-exchange transport. Members are indexed 0..R-1 in the
/// order the control plane registered them.
class SnapshotTransport {
 public:
  /// Samples a member's local demand vector at round start.
  using Provider = std::function<std::vector<double>()>;
  /// Delivers a completed aggregate; @p round strictly increases per member.
  using Receiver =
      std::function<void(std::uint64_t round, const std::vector<double>&)>;

  virtual ~SnapshotTransport() = default;

  /// Registers member @p member's sample/deliver hooks. Call before start().
  virtual void attach(std::size_t member, Provider provider,
                      Receiver receiver) = 0;

  /// Registers a callback fired when the transport declares its aggregate
  /// stream stale — no fresh aggregate within its staleness budget — so the
  /// member can drop back to the conservative no-snapshot 1/R regime.
  /// Transports that cannot lose peers keep this default no-op.
  virtual void attach_stale_handler(std::size_t member,
                                    std::function<void()> on_stale) {
    (void)member;
    (void)on_stale;
  }

  /// Begins exchange rounds (periodic on the sim transport; explicit via
  /// RoundProtocol::open_round() on the wall-clock path).
  virtual void start() = 0;
  virtual void stop() = 0;

  virtual std::uint64_t messages_sent() const = 0;
};

}  // namespace sharegrid::coord
