// The round protocol behind every snapshot exchange outside the simulator
// (§3.2; docs/control-plane.md "RoundProtocol"), as one sans-IO state
// machine.
//
// A round is a star around the root, the process holding the current lease:
// the root sends round-start(k) to every live peer; every process samples
// its local members and reports (k, member, demand) to the root; once every
// live member's report is in, the root sums them in global member order,
// delivers the sum locally and sends aggregate(k, sum) down. The live set is
// captured when a round opens and holds for the whole round, so a peer that
// dies mid-round runs the round into its deadline and a (re)joining peer is
// folded in at the next boundary; churn-free runs stay bitwise-identical to
// a one-process fleet.
//
// The root's TTL lease is refreshed on every round-start and every TTL/3. A
// follower that sees it expire may acquire a higher incarnation only once
// every LOWER-index peer has refused its dials since candidacy began, so the
// lowest live member wins. A deposed root is fenced: receivers reject its
// round frames and answer with a lease-ack carrying the newer incarnation
// and their highest round, which also fast-forwards a new root's counter so
// round tags stay monotone across root changes. An abandoned round is
// counted and skipped; with no aggregate for `stale_after_usec` the stale
// handlers fire once and the members fall back to the conservative 1/R
// regime.
//
// Sans-IO: no socket, thread, lock or clock. Inputs are peer_up / peer_down
// / dial_refused (session events), receive (a decoded frame from a peer),
// open_round and tick; the timed ones take the caller's now_usec. Outputs are
// frames handed to the caller's Sender the moment they are decided, plus
// synchronous calls into the local members' providers, receivers and stale
// handlers. With one process the protocol
// hosts every member and open_round() samples, sums and delivers before it
// returns.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "coord/snapshot_transport.hpp"
#include "coord/snapshot_wire.hpp"

namespace sharegrid::coord {

class RoundProtocol final : public SnapshotTransport {
 public:
  struct Options {
    /// This process's index, 0..process_count-1.
    std::size_t process_index = 0;
    /// Bumped on each restart. Process 0 at incarnation 1 bootstraps as the
    /// lease holder; every other process starts as a follower.
    std::uint64_t incarnation = 1;
    /// First global member index hosted here; global members are assigned
    /// contiguously per process.
    std::size_t member_offset = 0;
    /// Total members across the fleet, R (0 = every process hosts as many
    /// members as this one).
    std::size_t fleet_size = 0;
    /// Root: minimum spacing between round starts.
    std::int64_t round_period_usec = 100000;
    /// Root: an incomplete round is abandoned this long after it opened.
    std::int64_t round_deadline_usec = 100000;
    /// No aggregate for this long after the last delivery -> stale handlers
    /// fire (0 = round_period_usec + round_deadline_usec).
    std::int64_t stale_after_usec = 0;
    /// Followers treat the root as dead this long after the last lease.
    std::int64_t lease_ttl_usec = 500000;
    /// When false, followers never run for root.
    bool election_enabled = true;
    /// Fired when a round opens here (root: before sampling; leaf: on
    /// round-start receipt, before sampling).
    std::function<void(std::uint64_t round)> on_round_start;
  };

  /// Sender peer value addressing every peer with an established session.
  static constexpr std::size_t kEveryone =
      std::numeric_limits<std::size_t>::max();
  /// Carries one frame to another process (one peer, or kEveryone).
  using Sender = std::function<void(std::size_t peer, const wire::Frame&)>;

  /// @param process_count processes in the fleet; 1 hosts every member here.
  /// @param send          where frames for other processes go; required
  ///                      when process_count > 1.
  RoundProtocol(std::size_t local_member_count, std::size_t vector_size,
                Options options, std::size_t process_count = 1,
                Sender send = nullptr);

  void attach(std::size_t member, Provider provider,
              Receiver receiver) override;
  void attach_stale_handler(std::size_t member,
                            std::function<void()> on_stale) override;
  /// Inputs are ignored before start() and after stop().
  void start() override { running_ = true; }
  void stop() override { running_ = false; }
  /// Logical star messages: one report up per sampled local member plus,
  /// at the root, one aggregate down per live member — 2R per round.
  std::uint64_t messages_sent() const override { return messages_sent_; }

  // Inputs ------------------------------------------------------------------
  /// A session to @p peer came up; @p hello_aux packs the member range its
  /// HELLO claimed as (offset << 32) | count. Returns false (and rejects)
  /// when the range is impossible: the caller must drop that session.
  bool peer_up(std::size_t peer, std::uint64_t hello_aux);
  void peer_down(std::size_t peer);
  void dial_refused(std::size_t peer, std::int64_t now_usec);
  void receive(std::size_t peer, wire::Frame frame, std::int64_t now_usec);
  /// Root: opens a round now unless one is open. A round whose live set is
  /// this process alone completes before the call returns.
  void open_round(std::int64_t now_usec);
  /// Advances elections, heartbeats, round pacing, deadlines and staleness.
  void tick(std::int64_t now_usec);

  const Options& options() const { return options_; }
  std::size_t process_count() const { return processes_.size(); }
  bool is_root() const { return role_root_; }
  /// Whether a lease holder is known (a restarted follower knows none until
  /// a lease lands).
  bool has_root() const { return role_root_ || lease_known_; }
  std::size_t root_index() const {
    return role_root_ ? options_.process_index : lease_root_;
  }
  /// The lease incarnation this process operates under (0 = none yet).
  std::uint64_t lease_incarnation() const {
    return has_root() ? lease_inc_ : 0;
  }
  std::uint64_t elections() const { return elections_; }
  /// Root: times a pruned peer was folded back in at a round boundary.
  std::uint64_t readmissions() const { return readmissions_; }
  /// Root: global members included in the most recently opened round.
  std::size_t members_live() const { return last_round_members_; }
  std::uint64_t rounds_completed() const { return rounds_completed_; }
  std::uint64_t rounds_abandoned() const { return rounds_abandoned_; }
  std::uint64_t stale_fallbacks() const { return stale_fallbacks_; }
  /// Frames dropped by the protocol's checks, and the latest reason ("" if
  /// none yet).
  std::uint64_t frames_rejected() const { return frames_rejected_; }
  const std::string& last_reject_reason() const { return last_reject_reason_; }

 private:
  /// What this process knows about one process of the fleet (itself too).
  struct Process {
    bool up = false;       ///< session established, HELLO range valid
    bool ever_up = false;  ///< a session came up at least once
    std::size_t member_offset = 0;
    std::size_t member_count = 0;
    bool live_this_round = false;
    bool was_pruned = false;  ///< left the live set at least once
  };

  void reject(const char* why);
  void emit(std::size_t peer, const wire::Frame& frame);
  wire::Frame lease_frame() const;
  /// lease-ack to @p peer: our highest incarnation and round.
  void send_ack(std::size_t peer, std::uint64_t incarnation);
  void handle_lease(std::size_t from, const wire::Frame& frame,
                    std::int64_t now_usec);
  void handle_lease_ack(const wire::Frame& frame);
  void handle_report(std::size_t from, wire::Frame& frame);
  void handle_round_start(std::size_t from, const wire::Frame& frame);
  void handle_aggregate(std::size_t from, const wire::Frame& frame,
                        std::int64_t now_usec);
  /// Rejects a round frame from a process that does not hold the lease and
  /// answers with the newer incarnation so a zombie steps down.
  void fence_zombie_root(std::size_t from, const char* why);
  void abandon_open_round();
  void step_down(std::uint64_t newer_incarnation);
  void maybe_elect(std::int64_t now_usec);
  void acquire_lease(std::int64_t now_usec);
  void poll_round_root(std::int64_t now_usec);
  void finish_round(std::int64_t now_usec);
  void sample_local_members();
  void deliver_aggregate(std::uint64_t round, const std::vector<double>& sum,
                         std::int64_t now_usec);
  void check_staleness(std::int64_t now_usec);

  std::size_t local_member_count_;
  std::size_t vector_size_;
  Options options_;
  std::size_t fleet_size_;  ///< R (resolved from options)
  std::int64_t heartbeat_usec_;

  std::vector<Provider> providers_;
  std::vector<Receiver> receivers_;
  std::vector<std::function<void()>> stale_handlers_;
  Sender send_;
  bool running_ = false;

  // Lease / election state.
  bool role_root_;
  bool lease_known_ = false;     ///< follower: a lease has been adopted
  std::size_t lease_root_ = 0;   ///< follower: its holder
  std::uint64_t lease_inc_;      ///< adopted (follower) or held (root)
  std::int64_t lease_expiry_usec_ = 0;  ///< follower: local re-armed TTL
  std::uint64_t highest_inc_seen_;
  std::int64_t next_heartbeat_usec_ = 0;  ///< root only
  bool electing_ = false;
  std::int64_t election_started_usec_ = 0;
  std::vector<std::int64_t> last_refusal_usec_;  ///< per process

  // Round state.
  std::vector<Process> processes_;
  bool round_open_ = false;
  std::uint64_t current_round_ = 0;  ///< root: last opened; leaf: last seen
  std::int64_t round_started_usec_ = 0;
  std::int64_t next_round_start_usec_ = 0;
  std::vector<std::vector<double>> report_slots_;  ///< [global member]
  std::vector<bool> report_seen_;
  std::size_t reports_pending_ = 0;
  std::size_t last_round_members_ = 0;
  // Delivery / staleness state.
  bool has_delivered_ = false;
  std::uint64_t last_delivered_round_ = 0;
  std::int64_t last_delivery_usec_ = 0;
  bool stale_fired_ = false;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t rounds_abandoned_ = 0;
  std::uint64_t frames_rejected_ = 0;
  std::uint64_t stale_fallbacks_ = 0;
  std::uint64_t elections_ = 0;
  std::uint64_t readmissions_ = 0;
  std::string last_reject_reason_;
};

}  // namespace sharegrid::coord
