// Cross-process snapshot transport: the SnapshotTransport seam over real
// TCP (docs/control-plane.md).
//
// SocketTransport is a driver. Every protocol decision — rounds, the
// member-order sum, deadlines, staleness, lease, election and fencing —
// belongs to the sans-IO coord::RoundProtocol (round_protocol.hpp). This
// class owns the SessionManager (full mesh: every process listens and dials
// every other), feeds its events and decoded frames into the protocol,
// encodes the frames the protocol sends onto the sessions, and mirrors the
// protocol's counters into the metrics registry.
//
// Threading: SessionManager's background threads only pump bytes; all
// semantics run inside poll(now_usec) on the caller's thread against the
// caller's monotonic clock, so deadlines, lease expiry and elections are
// deterministic under test-supplied time. The counters below are read on
// the poll thread (or after stop()).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coord/round_protocol.hpp"
#include "coord/session_manager.hpp"
#include "coord/snapshot_transport.hpp"
#include "util/thread_annotations.hpp"

namespace sharegrid::coord {

/// Star-topology snapshot exchange between N processes over TCP, with peer
/// rejoin and lease-based root election.
class SocketTransport final : public SnapshotTransport {
 public:
  /// The protocol's options plus the session layer's; peers fixes the
  /// process count.
  struct Options : RoundProtocol::Options {
    /// host:port of every process in the fleet, index-aligned with
    /// process_index. Every process listens on its own entry and dials the
    /// others (port 0 entries are inbound-only). Loopback unless
    /// allow_nonlocal.
    std::vector<std::string> peers;
    /// Overrides the port parsed from peers[process_index] (0 = use peers[];
    /// tests pass "host:0" and read the ephemeral listen_port()).
    std::uint16_t listen_port = 0;
    /// Loopback-only unless set ([control_plane] allow_nonlocal).
    bool allow_nonlocal = false;
    /// Session re-dial backoff: first retry after reconnect_base_usec,
    /// doubling up to reconnect_max_usec, reset on an established session.
    std::int64_t reconnect_base_usec = 20000;
    std::int64_t reconnect_max_usec = 320000;
    /// Socket receive timeout for the background pumps; bounds stop() join
    /// latency and how often readers re-check the running flag.
    int io_timeout_ms = 50;
  };

  SocketTransport(std::size_t local_member_count, std::size_t vector_size,
                  Options options);
  ~SocketTransport() override;

  void attach(std::size_t member, Provider provider,
              Receiver receiver) override {
    protocol_.attach(member, std::move(provider), std::move(receiver));
  }
  void attach_stale_handler(std::size_t member,
                            std::function<void()> on_stale) override {
    protocol_.attach_stale_handler(member, std::move(on_stale));
  }

  /// Binds this process's listen port and starts the session layer. Dials,
  /// handshakes and rounds all happen in poll(), so start() needs no clock.
  void start() override;
  void stop() override;

  /// Pumps session events into the protocol and ticks it; the frames it
  /// decides to send go out on the sessions as it decides them. Must be
  /// called from one thread; receivers and on_round_start run synchronously
  /// inside it.
  void poll(std::int64_t now_usec);

  /// Logical star messages, 2R per full-membership round fleet-wide.
  /// Session and lease frames are control overhead and are not counted.
  std::uint64_t messages_sent() const override {
    return protocol_.messages_sent();
  }

  /// Lease, election and membership state, and the protocol's counters.
  const RoundProtocol& protocol() const { return protocol_; }
  /// The bound port (after start()); valid with ephemeral binds.
  std::uint16_t listen_port() const { return session_->listen_port(); }
  SessionManager::SessionState session_state(std::size_t peer) const {
    return session_->state(peer);
  }
  /// Distinct peers that have ever established a session with us.
  std::size_t peers_connected() const {
    return session_->peers_ever_established();
  }
  /// Sessions re-established after a loss (coord.socket.reconnects).
  std::uint64_t reconnects() const { return session_->reconnects(); }
  std::uint64_t rounds_completed() const {
    return protocol_.rounds_completed();
  }
  std::uint64_t rounds_abandoned() const {
    return protocol_.rounds_abandoned();
  }
  /// Frames dropped by the session layer (undecodable bytes, zombie or
  /// missing hellos) plus those the protocol rejected; mirrored into the
  /// metrics registry as coord.socket.frames_rejected.
  std::uint64_t frames_rejected() const {
    return session_rejects_.load(std::memory_order_relaxed) +
           protocol_.frames_rejected();
  }
  /// Why the most recent frame was rejected ("" if none yet).
  std::string last_reject_reason() const SHAREGRID_EXCLUDES(mutex_);

 private:
  /// The session layer's reject hook; called from reader threads too.
  void reject_frame(const char* why) SHAREGRID_EXCLUDES(mutex_);
  /// Adds the protocol's counter growth since the last poll to the
  /// metrics registry.
  void mirror_counters() SHAREGRID_EXCLUDES(mutex_);

  RoundProtocol protocol_;
  std::unique_ptr<SessionManager> session_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> session_rejects_{0};

  mutable util::Mutex mutex_;
  std::string last_reject_reason_ SHAREGRID_GUARDED_BY(mutex_);

  // Protocol counter values already mirrored (poll() thread only).
  std::uint64_t mirrored_rejects_ = 0;
  std::uint64_t mirrored_abandoned_ = 0;
  std::uint64_t mirrored_stale_ = 0;
  std::uint64_t mirrored_elections_ = 0;
};

}  // namespace sharegrid::coord
