#include "coord/socket_transport.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/metrics_registry.hpp"

namespace sharegrid::coord {
namespace {

util::MetricCounter& rejected_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.socket.frames_rejected",
      "malformed or unexpected control-plane frames dropped");
  return counter;
}
util::MetricCounter& abandoned_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.socket.rounds_abandoned",
      "snapshot rounds abandoned at the deadline with reports missing");
  return counter;
}
util::MetricCounter& stale_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.socket.stale_fallbacks",
      "staleness threshold hits that dropped members to the 1/R regime");
  return counter;
}
util::MetricCounter& elections_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.socket.elections",
      "root leases acquired by this process after detecting expiry");
  return counter;
}

/// Adds `now - *mirrored` to @p counter and advances the mark.
void mirror(util::MetricCounter& counter, std::uint64_t now,
            std::uint64_t* mirrored) {
  if (now > *mirrored) counter.add(now - *mirrored);
  *mirrored = now;
}

}  // namespace

SocketTransport::SocketTransport(std::size_t local_member_count,
                                 std::size_t vector_size, Options options)
    : protocol_(local_member_count, vector_size, options,
                options.peers.size(),
                [this](std::size_t peer, const wire::Frame& frame) {
                  if (peer == RoundProtocol::kEveryone)
                    session_->broadcast(wire::encode(frame));
                  else
                    session_->send(peer, wire::encode(frame));
                }) {
  SessionManager::Options session;
  session.peers = std::move(options.peers);
  session.self_index = options.process_index;
  session.incarnation = options.incarnation;
  session.listen_port = options.listen_port;
  session.allow_nonlocal = options.allow_nonlocal;
  session.reconnect_base_usec = options.reconnect_base_usec;
  session.reconnect_max_usec = options.reconnect_max_usec;
  session.hello_aux =
      (static_cast<std::uint64_t>(options.member_offset) << 32) |
      static_cast<std::uint64_t>(local_member_count);
  session.on_reject = [this](const char* why) { reject_frame(why); };
  session_ = std::make_unique<SessionManager>(std::move(session));
}

void SocketTransport::start() {
  SHAREGRID_EXPECTS(!running_);
  protocol_.start();
  session_->start();
  // Full mesh: any process may need to reach any other (reports to a future
  // root, refusal evidence from dead lower-index peers during an election).
  for (std::size_t p = 0; p < protocol_.process_count(); ++p)
    if (p != protocol_.options().process_index) session_->want(p, true);
  running_ = true;
}

void SocketTransport::stop() {
  if (!running_) return;
  running_ = false;
  protocol_.stop();
  session_->stop();
}

void SocketTransport::reject_frame(const char* why) {
  ++session_rejects_;
  rejected_counter().add();
  last_reject_reason_ = why;
}

void SocketTransport::poll(std::int64_t now_usec) {
  if (!running_) return;
  session_->poll(now_usec);
  for (SessionManager::Event& event : session_->take_events()) {
    switch (event.kind) {
      case SessionManager::Event::Kind::kPeerUp:
        if (!protocol_.peer_up(event.peer, event.aux))
          session_->disconnect(event.peer);
        break;
      case SessionManager::Event::Kind::kPeerDown:
        protocol_.peer_down(event.peer);
        break;
      case SessionManager::Event::Kind::kDialRefused:
        protocol_.dial_refused(event.peer, now_usec);
        break;
      case SessionManager::Event::Kind::kFrame:
        protocol_.receive(event.peer, std::move(event.frame), now_usec);
        break;
    }
  }
  protocol_.tick(now_usec);
  mirror_counters();
}

void SocketTransport::mirror_counters() {
  if (protocol_.frames_rejected() > mirrored_rejects_)
    last_reject_reason_ = protocol_.last_reject_reason();
  mirror(rejected_counter(), protocol_.frames_rejected(), &mirrored_rejects_);
  mirror(abandoned_counter(), protocol_.rounds_abandoned(),
         &mirrored_abandoned_);
  mirror(stale_counter(), protocol_.stale_fallbacks(), &mirrored_stale_);
  mirror(elections_counter(), protocol_.elections(), &mirrored_elections_);
}

}  // namespace sharegrid::coord
