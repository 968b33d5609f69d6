#include "coord/round_protocol.hpp"

#include <algorithm>
#include <utility>

#include "audit/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace sharegrid::coord {
namespace {

constexpr std::int64_t kNeverRefused = std::numeric_limits<std::int64_t>::min();

}  // namespace

RoundProtocol::RoundProtocol(std::size_t local_member_count,
                             std::size_t vector_size, Options options,
                             std::size_t process_count, Sender send)
    : local_member_count_(local_member_count),
      vector_size_(vector_size),
      options_(std::move(options)),
      fleet_size_(options_.fleet_size != 0
                      ? options_.fleet_size
                      : local_member_count * process_count),
      heartbeat_usec_(options_.lease_ttl_usec / 3),
      providers_(local_member_count),
      receivers_(local_member_count),
      stale_handlers_(local_member_count),
      send_(std::move(send)),
      // Process 0 at incarnation 1 bootstraps the lease; every other
      // process, including a restarted process 0, starts as a follower and
      // adopts the lease the current root sends it.
      role_root_(options_.process_index == 0 && options_.incarnation == 1),
      lease_inc_(role_root_ ? 1 : 0),
      highest_inc_seen_(lease_inc_),
      last_refusal_usec_(process_count, kNeverRefused),
      processes_(process_count),
      report_slots_(fleet_size_),
      report_seen_(fleet_size_, false) {
  SHAREGRID_EXPECTS(local_member_count >= 1);
  SHAREGRID_EXPECTS(vector_size >= 1);
  SHAREGRID_EXPECTS(options_.process_index < process_count);
  SHAREGRID_EXPECTS(process_count == 1 || send_ != nullptr);
  SHAREGRID_EXPECTS(options_.incarnation >= 1);
  SHAREGRID_EXPECTS(options_.member_offset + local_member_count <=
                    fleet_size_);
  SHAREGRID_EXPECTS(options_.round_period_usec > 0);
  SHAREGRID_EXPECTS(options_.round_deadline_usec > 0);
  SHAREGRID_EXPECTS(options_.lease_ttl_usec > 0);
  Process& self = processes_[options_.process_index];
  self.member_offset = options_.member_offset;
  self.member_count = local_member_count;
}

void RoundProtocol::attach(std::size_t member, Provider provider,
                           Receiver receiver) {
  SHAREGRID_EXPECTS(member < local_member_count_);
  providers_[member] = std::move(provider);
  receivers_[member] = std::move(receiver);
}

void RoundProtocol::attach_stale_handler(std::size_t member,
                                         std::function<void()> on_stale) {
  SHAREGRID_EXPECTS(member < local_member_count_);
  stale_handlers_[member] = std::move(on_stale);
}

void RoundProtocol::reject(const char* why) {
  ++frames_rejected_;
  last_reject_reason_ = why;
}

void RoundProtocol::emit(std::size_t peer, const wire::Frame& frame) {
  if (send_) send_(peer, frame);
}

bool RoundProtocol::peer_up(std::size_t peer, std::uint64_t hello_aux) {
  Process& proc = processes_[peer];
  proc.ever_up = true;
  const auto offset = static_cast<std::size_t>(hello_aux >> 32);
  const auto count = static_cast<std::size_t>(hello_aux & 0xffffffffu);
  if (count == 0 || offset + count > fleet_size_) {
    proc.up = false;
    reject("hello member range out of range");
    return false;
  }
  proc.up = true;
  proc.member_offset = offset;
  proc.member_count = count;
  // The root introduces itself to every newcomer immediately, so a rejoining
  // process adopts the lease before the first round-start it sees (frames
  // on one session are ordered).
  if (role_root_) emit(peer, lease_frame());
  return true;
}

void RoundProtocol::peer_down(std::size_t peer) {
  // Membership changes only at round boundaries: an open round that just
  // lost a reporter runs into its deadline, and the next open_round()
  // captures the shrunken live set.
  processes_[peer].up = false;
}

void RoundProtocol::dial_refused(std::size_t peer, std::int64_t now_usec) {
  last_refusal_usec_[peer] = now_usec;
}

void RoundProtocol::receive(std::size_t peer, wire::Frame frame,
                            std::int64_t now_usec) {
  switch (frame.type) {
    case wire::FrameType::kLease:
      handle_lease(peer, frame, now_usec);
      break;
    case wire::FrameType::kLeaseAck:
      handle_lease_ack(frame);
      break;
    case wire::FrameType::kReport:
      // At a non-root the reporter still believes we hold the lease; its
      // report is for a round that died with our tenure.
      if (role_root_)
        handle_report(peer, frame);
      else
        reject("report at non-root");
      break;
    case wire::FrameType::kRoundStart:
      if (role_root_)
        fence_zombie_root(peer, "round start from rival root");
      else
        handle_round_start(peer, frame);
      break;
    case wire::FrameType::kAggregate:
      if (role_root_)
        fence_zombie_root(peer, "aggregate from rival root");
      else
        handle_aggregate(peer, frame, now_usec);
      break;
    case wire::FrameType::kHello:
      reject("unexpected hello frame");  // the session layer owns these
      break;
  }
}

void RoundProtocol::tick(std::int64_t now_usec) {
  if (!running_) return;
  if (!role_root_) maybe_elect(now_usec);
  if (role_root_) {
    if (now_usec >= next_heartbeat_usec_) {
      emit(kEveryone, lease_frame());
      next_heartbeat_usec_ = now_usec + heartbeat_usec_;
    }
    poll_round_root(now_usec);
  }
  check_staleness(now_usec);
}

void RoundProtocol::handle_lease(std::size_t from, const wire::Frame& frame,
                                 std::int64_t now_usec) {
  if (frame.member != from) {
    reject("lease root mismatch");
    return;
  }
  if (frame.aux == 0) {
    reject("lease ttl zero");
    return;
  }
  const std::uint64_t inc = frame.incarnation;
  if (inc < highest_inc_seen_) {
    // A zombie root still advertising a superseded lease: reject it and
    // answer with the incarnation that displaced it so it steps down.
    fence_zombie_root(from, "stale lease incarnation");
    return;
  }
  if (role_root_) {
    if (inc <= lease_inc_) {
      // Same incarnation, different holder: that is a genuine split brain,
      // and the audit below is the one that fires on it.
      SHAREGRID_AUDIT_HOOK(audit::audit_lease_monotone(
          true, lease_inc_, options_.process_index, inc, frame.member));
      reject("rival lease at same incarnation");
      return;
    }
    step_down(inc);
  }
  SHAREGRID_AUDIT_HOOK(audit::audit_lease_monotone(
      lease_known_, lease_inc_, lease_root_, inc, frame.member));
  lease_known_ = true;
  lease_root_ = from;
  lease_inc_ = inc;
  highest_inc_seen_ = inc;
  lease_expiry_usec_ = now_usec + static_cast<std::int64_t>(frame.aux);
  electing_ = false;
  // Ack with our highest round so a freshly elected root fast-forwards its
  // round counter above anything we have seen or delivered.
  send_ack(from, inc);
}

void RoundProtocol::handle_lease_ack(const wire::Frame& frame) {
  if (role_root_) {
    if (frame.incarnation > lease_inc_) {
      // The fence: a receiver we tried to drive rounds on is operating
      // under a newer lease. Our tenure is over.
      step_down(frame.incarnation);
      return;
    }
    if (frame.incarnation < lease_inc_) {
      reject("stale lease ack");
      return;
    }
    if (frame.round > current_round_) {
      // A survivor delivered rounds we never saw (the old root died between
      // per-peer sends). Jump past them; an open round with a lower tag is
      // unservable for that survivor anyway.
      abandon_open_round();
      current_round_ = frame.round;
    }
    return;
  }
  if (frame.incarnation > highest_inc_seen_) {
    // Someone holds a lease newer than anything we have adopted; remember
    // the incarnation so we neither elect over it nor accept older leases.
    highest_inc_seen_ = frame.incarnation;
    return;
  }
  reject("unexpected lease ack");
}

void RoundProtocol::handle_report(std::size_t from, wire::Frame& frame) {
  if (!round_open_ || frame.round != current_round_) {
    reject("stale round tag");
    return;
  }
  const Process& proc = processes_[from];
  if (!proc.live_this_round) {
    reject("report from process outside the round's live set");
    return;
  }
  if (frame.member < proc.member_offset ||
      frame.member >= proc.member_offset + proc.member_count) {
    reject("member index outside sender's claimed range");
    return;
  }
  if (report_seen_[frame.member]) {
    reject("duplicate member report");
    return;
  }
  if (frame.values.size() != vector_size_) {
    reject("report vector size mismatch");
    return;
  }
  report_seen_[frame.member] = true;
  report_slots_[frame.member] = std::move(frame.values);
  --reports_pending_;
}

void RoundProtocol::handle_round_start(std::size_t from,
                                       const wire::Frame& frame) {
  if (!lease_known_) {
    reject("round start without lease");
    return;
  }
  if (from != lease_root_) {
    fence_zombie_root(from, "round start from non-root");
    return;
  }
  // current_round_ doubles as "highest round-start seen" on a follower.
  if (frame.round <= current_round_) {
    reject("stale round tag");
    return;
  }
  current_round_ = frame.round;
  if (options_.on_round_start) options_.on_round_start(current_round_);
  sample_local_members();
}

void RoundProtocol::handle_aggregate(std::size_t from,
                                     const wire::Frame& frame,
                                     std::int64_t now_usec) {
  if (!lease_known_) {
    reject("aggregate without lease");
    return;
  }
  if (from != lease_root_) {
    fence_zombie_root(from, "aggregate from non-root");
    return;
  }
  if (frame.values.size() != vector_size_) {
    reject("aggregate vector size mismatch");
    return;
  }
  if (has_delivered_ && frame.round <= last_delivered_round_) {
    reject("stale round tag");
    return;
  }
  deliver_aggregate(frame.round, frame.values, now_usec);
}

void RoundProtocol::fence_zombie_root(std::size_t from, const char* why) {
  reject(why);
  if (!role_root_ && !lease_known_) return;  // nothing newer to point at
  send_ack(from, highest_inc_seen_);
}

void RoundProtocol::send_ack(std::size_t peer, std::uint64_t incarnation) {
  wire::Frame ack;
  ack.type = wire::FrameType::kLeaseAck;
  ack.member = static_cast<std::uint32_t>(options_.process_index);
  ack.incarnation = incarnation;
  ack.round = std::max(current_round_, last_delivered_round_);
  emit(peer, ack);
}

wire::Frame RoundProtocol::lease_frame() const {
  wire::Frame lease;
  lease.type = wire::FrameType::kLease;
  lease.member = static_cast<std::uint32_t>(options_.process_index);
  lease.incarnation = lease_inc_;
  lease.round = current_round_;
  lease.aux = static_cast<std::uint64_t>(options_.lease_ttl_usec);
  return lease;
}

void RoundProtocol::abandon_open_round() {
  if (!round_open_) return;
  round_open_ = false;
  ++rounds_abandoned_;
}

void RoundProtocol::step_down(std::uint64_t newer_incarnation) {
  role_root_ = false;
  electing_ = false;
  // We do not know the new holder or its expiry yet; its lease frame fills
  // those in. Until then we are a follower with no lease, which also means
  // we cannot (re-)elect over the newer incarnation we just learned about.
  lease_known_ = false;
  highest_inc_seen_ = std::max(highest_inc_seen_, newer_incarnation);
  abandon_open_round();
}

void RoundProtocol::maybe_elect(std::int64_t now_usec) {
  // Candidacy needs a lease to have *expired*: a follower that never
  // adopted one (fresh start, or fresh restart) waits for the live root to
  // introduce itself instead of electing over a fleet it cannot see yet.
  if (!options_.election_enabled || !lease_known_) return;
  if (now_usec < lease_expiry_usec_) {
    electing_ = false;
    return;
  }
  if (!electing_) {
    electing_ = true;
    election_started_usec_ = now_usec;
  }
  // Lowest live member id wins: we may acquire only once every lower-index
  // peer has refused a dial since candidacy began. A live session to a
  // lower peer means it is alive and will acquire instead; a session that
  // merely dropped is not evidence of death, so we keep waiting for a hard
  // refusal.
  for (std::size_t p = 0; p < options_.process_index; ++p) {
    if (processes_[p].up) return;
    if (last_refusal_usec_[p] < election_started_usec_) return;
  }
  acquire_lease(now_usec);
}

void RoundProtocol::acquire_lease(std::int64_t now_usec) {
  const std::uint64_t new_inc = highest_inc_seen_ + 1;
  SHAREGRID_AUDIT_HOOK(audit::audit_root_acquire(
      lease_known_, now_usec, lease_expiry_usec_, new_inc,
      highest_inc_seen_));
  role_root_ = true;
  electing_ = false;
  lease_known_ = false;
  lease_root_ = options_.process_index;
  lease_inc_ = new_inc;
  highest_inc_seen_ = new_inc;
  current_round_ = std::max(current_round_, last_delivered_round_);
  round_open_ = false;
  ++elections_;
  // Announce immediately; acks flow back carrying each survivor's highest
  // round. The first round is held one period so those acks can
  // fast-forward current_round_ before a tag is spent on a round the
  // survivors would reject.
  emit(kEveryone, lease_frame());
  next_heartbeat_usec_ = now_usec + heartbeat_usec_;
  next_round_start_usec_ = now_usec + options_.round_period_usec;
}

void RoundProtocol::poll_round_root(std::int64_t now_usec) {
  if (round_open_ && reports_pending_ == 0) finish_round(now_usec);
  if (round_open_ &&
      now_usec - round_started_usec_ >= options_.round_deadline_usec)
    abandon_open_round();
  // The bootstrap root (lease incarnation 1) holds round 1 until the whole
  // fleet has connected once, so a slow peer start-up shows as a later
  // first round, not a gap, and churn-free runs stay bitwise-identical to
  // the one-process fleet. An elected root resumes with whoever is alive.
  const auto ever_up = static_cast<std::size_t>(std::count_if(
      processes_.begin(), processes_.end(),
      [](const Process& proc) { return proc.ever_up; }));
  const bool assembled = lease_inc_ > 1 || current_round_ > 0 ||
                         ever_up + 1 >= processes_.size();
  if (assembled && now_usec >= next_round_start_usec_) open_round(now_usec);
}

void RoundProtocol::open_round(std::int64_t now_usec) {
  if (!running_ || !role_root_ || round_open_) return;
  // Membership is captured here and holds for the whole round: this process
  // plus every live peer, each contributing the global member range its
  // HELLO claimed. Joins and rejoins fold in at the *next* boundary.
  std::size_t live_members = 0;
  for (std::size_t p = 0; p < processes_.size(); ++p) {
    Process& proc = processes_[p];
    const bool live = p == options_.process_index || proc.up;
    if (live && proc.was_pruned) {
      ++readmissions_;
      proc.was_pruned = false;
    }
    if (!live && proc.live_this_round) proc.was_pruned = true;
    proc.live_this_round = live;
    if (live) live_members += proc.member_count;
  }
  ++current_round_;
  round_open_ = true;
  round_started_usec_ = now_usec;
  next_round_start_usec_ = now_usec + options_.round_period_usec;
  report_seen_.assign(fleet_size_, false);
  reports_pending_ = live_members;
  last_round_members_ = live_members;
  // Lease refresh piggybacks on every round-start.
  emit(kEveryone, lease_frame());
  next_heartbeat_usec_ = now_usec + heartbeat_usec_;
  if (options_.on_round_start) options_.on_round_start(current_round_);
  sample_local_members();
  wire::Frame kick;
  kick.type = wire::FrameType::kRoundStart;
  kick.round = current_round_;
  for (std::size_t p = 0; p < processes_.size(); ++p)
    if (p != options_.process_index && processes_[p].live_this_round)
      emit(p, kick);
  if (reports_pending_ == 0) finish_round(now_usec);
}

void RoundProtocol::finish_round(std::int64_t now_usec) {
  // Sum in global member order, so the floating-point order (and therefore
  // every plan) is the same however the members are spread over processes.
  // Pruned members contribute nothing: a dead process's demand is not
  // demand.
  std::vector<double> sum(vector_size_, 0.0);
  for (std::size_t m = 0; m < fleet_size_; ++m) {
    if (!report_seen_[m]) continue;
    for (std::size_t i = 0; i < vector_size_; ++i)
      sum[i] += report_slots_[m][i];
  }
  round_open_ = false;
  ++rounds_completed_;
  // Star accounting: one logical broadcast down per live member.
  messages_sent_ += last_round_members_;
  deliver_aggregate(current_round_, sum, now_usec);
  wire::Frame down;
  down.type = wire::FrameType::kAggregate;
  down.round = current_round_;
  down.values = std::move(sum);
  for (std::size_t p = 0; p < processes_.size(); ++p)
    if (p != options_.process_index && processes_[p].live_this_round)
      emit(p, down);
}

void RoundProtocol::sample_local_members() {
  for (std::size_t m = 0; m < local_member_count_; ++m) {
    // An unattached member contributes zeros; the round must still complete.
    std::vector<double> local = providers_[m]
                                    ? providers_[m]()
                                    : std::vector<double>(vector_size_, 0.0);
    SHAREGRID_ASSERT(local.size() == vector_size_);
    const std::size_t global = options_.member_offset + m;
    ++messages_sent_;  // report up
    if (role_root_) {
      report_seen_[global] = true;
      report_slots_[global] = std::move(local);
      --reports_pending_;
    } else {
      wire::Frame up;
      up.type = wire::FrameType::kReport;
      up.round = current_round_;
      up.member = static_cast<std::uint32_t>(global);
      up.values = std::move(local);
      emit(lease_root_, up);
    }
  }
}

void RoundProtocol::deliver_aggregate(std::uint64_t round,
                                      const std::vector<double>& sum,
                                      std::int64_t now_usec) {
  SHAREGRID_AUDIT_HOOK(audit::audit_round_tag_monotone(
      has_delivered_, last_delivered_round_, round));
  has_delivered_ = true;
  last_delivered_round_ = round;
  last_delivery_usec_ = now_usec;
  stale_fired_ = false;  // a fresh aggregate re-arms the staleness trip
  for (std::size_t m = 0; m < local_member_count_; ++m)
    if (receivers_[m]) receivers_[m](round, sum);
}

void RoundProtocol::check_staleness(std::int64_t now_usec) {
  // Nothing delivered yet = the members never left the conservative regime;
  // there is nothing to fall back from.
  if (!has_delivered_ || stale_fired_) return;
  const std::int64_t stale_after =
      options_.stale_after_usec > 0
          ? options_.stale_after_usec
          : options_.round_period_usec + options_.round_deadline_usec;
  if (now_usec - last_delivery_usec_ < stale_after) return;
  stale_fired_ = true;
  ++stale_fallbacks_;
  for (const auto& handler : stale_handlers_)
    if (handler) handler();
}

}  // namespace sharegrid::coord
