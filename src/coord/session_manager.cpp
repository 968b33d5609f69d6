#include "coord/session_manager.hpp"

#include <arpa/inet.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "util/assert.hpp"
#include "util/metrics_registry.hpp"

namespace sharegrid::coord {
namespace {

util::MetricCounter& reconnects_counter() {
  static util::MetricCounter& counter = util::global_metrics().counter(
      "coord.socket.reconnects",
      "control-plane sessions re-established after a loss or refusal");
  return counter;
}
util::MetricGauge& sessions_gauge() {
  static util::MetricGauge& gauge = util::global_metrics().gauge(
      "coord.socket.sessions_active",
      "established control-plane peer sessions (per process)");
  return gauge;
}

}  // namespace

const char* to_string(SessionManager::SessionState state) {
  switch (state) {
    case SessionManager::SessionState::kIdle: return "idle";
    case SessionManager::SessionState::kConnecting: return "connecting";
    case SessionManager::SessionState::kEstablished: return "established";
    case SessionManager::SessionState::kLost: return "lost";
    case SessionManager::SessionState::kRejoining: return "rejoining";
  }
  return "unknown";
}

SessionManager::PeerAddr SessionManager::parse_peer(const std::string& peer,
                                                    bool allow_nonlocal) {
  const std::size_t colon = peer.find_last_of(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= peer.size())
    throw ContractViolation("SessionManager: peer '" + peer +
                            "' must look like 'host:port'");
  PeerAddr addr;
  addr.host = peer.substr(0, colon);
  if (addr.host == "localhost") addr.host = "127.0.0.1";
  if (!allow_nonlocal && addr.host != "127.0.0.1")
    throw ContractViolation(
        "SessionManager: peer '" + peer +
        "' is not loopback; non-local peers require the explicit "
        "allow_nonlocal flag ([control_plane] allow_nonlocal = true)");
  // No DNS: a host name would fail every dial and read as a dead peer.
  in_addr numeric{};
  if (::inet_pton(AF_INET, addr.host.c_str(), &numeric) != 1)
    throw ContractViolation("SessionManager: peer '" + peer +
                            "' must name a numeric IPv4 host");
  int port = 0;
  try {
    port = std::stoi(peer.substr(colon + 1));
  } catch (const std::exception&) {
    port = -1;
  }
  if (port < 0 || port > 65535)
    throw ContractViolation("SessionManager: peer '" + peer +
                            "' has an invalid port");
  addr.port = static_cast<std::uint16_t>(port);
  return addr;
}

SessionManager::SessionManager(Options options)
    : options_(std::move(options)), fleet_(options_.peers.size()) {
  SHAREGRID_EXPECTS(!options_.peers.empty());
  SHAREGRID_EXPECTS(options_.self_index < fleet_);
  SHAREGRID_EXPECTS(options_.incarnation >= 1);
  SHAREGRID_EXPECTS(options_.reconnect_base_usec > 0);
  SHAREGRID_EXPECTS(options_.reconnect_max_usec >=
                    options_.reconnect_base_usec);
  SHAREGRID_EXPECTS(options_.hello_timeout_usec > 0);
  // Every peer entry must parse (and pass the loopback policy) up front,
  // not when first dialed.
  for (const std::string& peer : options_.peers)
    parse_peer(peer, options_.allow_nonlocal);
}

void SessionManager::start() {
  SHAREGRID_EXPECTS(!listener_.valid());
  events_.clear();
  peers_.assign(fleet_, Peer{});
  const PeerAddr self =
      parse_peer(options_.peers[options_.self_index], options_.allow_nonlocal);
  const std::uint16_t port =
      options_.listen_port != 0 ? options_.listen_port : self.port;
  // Loopback fleets bind loopback; a fleet that opted into non-local peers
  // must accept from other hosts, so it binds the wildcard address.
  listener_ =
      net::listen_on(options_.allow_nonlocal ? "0.0.0.0" : "127.0.0.1", port);
  listen_port_ = net::local_port(listener_);
  update_gauge();
}

void SessionManager::stop() {
  conns_.clear();
  listener_.reset();
}

void SessionManager::reject(const char* why) {
  if (options_.on_reject) options_.on_reject(why);
}

std::size_t SessionManager::add_conn(net::Fd socket) {
  std::size_t index = 0;
  while (index < conns_.size() && conns_[index].socket.valid()) ++index;
  if (index == conns_.size()) conns_.emplace_back();
  conns_[index].socket = std::move(socket);
  return index;
}

void SessionManager::drain(std::size_t conn_index, std::int64_t now_usec) {
  char chunk[16 * 1024];
  for (;;) {
    const ssize_t n =
        ::recv(conns_[conn_index].socket.get(), chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) return handle_closed(conn_index, now_usec);
    conns_[conn_index].frames.feed(
        std::string_view(chunk, static_cast<std::size_t>(n)));
    std::string payload;
    for (;;) {
      const net::FrameReader::Event event =
          conns_[conn_index].frames.next(&payload);
      if (event == net::FrameReader::Event::kNeedMore) break;
      if (event == net::FrameReader::Event::kOversized) {
        // Framing is unrecoverable: count it and drop the connection.
        reject("oversized length prefix");
        return handle_closed(conn_index, now_usec);
      }
      wire::Frame frame;
      const wire::DecodeStatus status = wire::decode(payload, &frame);
      if (status != wire::DecodeStatus::kOk) {
        reject(wire::to_string(status));
        continue;
      }
      handle_frame(conn_index, std::move(frame), now_usec);
      // The frame may have closed its own connection (a collision loser,
      // a zombie); what else it carried goes with it.
      if (!conns_[conn_index].socket.valid()) return;
    }
    if (static_cast<std::size_t>(n) < sizeof chunk) return;  // drained
  }
}

void SessionManager::handle_frame(std::size_t conn_index, wire::Frame frame,
                                  std::int64_t now_usec) {
  if (frame.type == wire::FrameType::kHello)
    return handle_hello(conn_index, frame, now_usec);
  const std::size_t p = conns_[conn_index].peer;
  if (p == kNoConn || peers_[p].conn != conn_index ||
      peers_[p].state != SessionState::kEstablished) {
    reject("frame before hello");
    return;
  }
  events_.push_back({Event::Kind::kFrame, p, 0, 0, std::move(frame)});
}

void SessionManager::finish_dial(std::size_t conn_index,
                                 std::int64_t now_usec) {
  Conn& conn = conns_[conn_index];
  if (net::connect_error(conn.socket) == 0) {
    conn.connecting = false;  // the queued HELLO goes out in this poll()
    return;
  }
  const std::size_t p = conn.peer;
  peers_[p].conn = kNoConn;
  close_conn(conn_index);
  note_refusal(p, now_usec);
}

void SessionManager::send_on_conn(std::size_t conn_index,
                                  const std::string& bytes) {
  Conn& conn = conns_[conn_index];
  if (conn.broken) return;
  net::append_frame(&conn.unsent, bytes);
  if (!conn.connecting) flush(conn);
  if (conn.unsent.size() > net::kMaxFrameBytes) {
    // The peer stopped reading: waiting on it would stall every other
    // peer, so it is lost instead.
    conn.broken = true;
    conn.unsent.clear();
  }
}

void SessionManager::flush(Conn& conn) {
  if (conn.unsent.empty()) return;
  const ssize_t n =
      net::send_some(conn.socket, conn.unsent.data(), conn.unsent.size());
  if (n < 0)
    conn.broken = true;  // peer died mid-send; poll() reports the loss
  else
    conn.unsent.erase(0, static_cast<std::size_t>(n));
}

void SessionManager::close_conn(std::size_t conn_index) {
  conns_[conn_index] = Conn();
}

void SessionManager::handle_closed(std::size_t conn_index,
                                   std::int64_t now_usec) {
  const std::size_t p = conns_[conn_index].peer;
  close_conn(conn_index);
  if (p == kNoConn || peers_[p].conn != conn_index) return;
  Peer& peer = peers_[p];
  peer.conn = kNoConn;
  const bool was_established = peer.state == SessionState::kEstablished;
  if (was_established) {
    events_.push_back({Event::Kind::kPeerDown, p, 0, 0, {}});
    update_gauge();
  }
  if (!peer.wanted) {
    peer.state = peer.ever_established ? SessionState::kLost
                                       : SessionState::kIdle;
    return;
  }
  peer.state = peer.ever_established ? SessionState::kLost
                                     : SessionState::kConnecting;
  if (was_established) {
    // A lost session redials immediately once; refusals then back off.
    peer.backoff_usec = 0;
    peer.next_dial_usec = now_usec;
  } else {
    // Closed before the handshake finished (collision loser, or a peer that
    // crashed mid-accept): back off like a refusal, but without the event —
    // a completed TCP connect is not evidence the process is gone.
    peer.backoff_usec =
        peer.backoff_usec == 0
            ? options_.reconnect_base_usec
            : std::min(2 * peer.backoff_usec, options_.reconnect_max_usec);
    peer.next_dial_usec = now_usec + peer.backoff_usec;
  }
}

void SessionManager::note_refusal(std::size_t peer_index,
                                  std::int64_t now_usec) {
  Peer& peer = peers_[peer_index];
  events_.push_back({Event::Kind::kDialRefused, peer_index, 0, 0, {}});
  peer.state = peer.ever_established ? SessionState::kLost
                                     : SessionState::kConnecting;
  peer.backoff_usec =
      peer.backoff_usec == 0
          ? options_.reconnect_base_usec
          : std::min(2 * peer.backoff_usec, options_.reconnect_max_usec);
  peer.next_dial_usec = now_usec + peer.backoff_usec;
}

void SessionManager::establish(std::size_t peer_index, std::size_t conn_index,
                               std::uint64_t incarnation, std::uint64_t aux) {
  Peer& peer = peers_[peer_index];
  if (peer.conn == conn_index && peer.state == SessionState::kEstablished) {
    peer.incarnation = incarnation;  // duplicate HELLO on the live session
    peer.aux = aux;
    return;
  }
  if (peer.conn != kNoConn && peer.conn != conn_index) {
    // Replacing an existing session (rejoin with a fresh incarnation, or a
    // collision resolved toward this conn): closing it is not a peer loss.
    close_conn(peer.conn);
    peer.conn = kNoConn;
    if (peer.state == SessionState::kEstablished) update_gauge();
  }
  const bool rejoined = peer.ever_established;
  peer.conn = conn_index;
  peer.state = SessionState::kEstablished;
  peer.ever_established = true;
  peer.incarnation = incarnation;
  peer.aux = aux;
  peer.backoff_usec = 0;
  if (rejoined) {
    ++reconnects_;
    reconnects_counter().add();
  }
  events_.push_back({Event::Kind::kPeerUp, peer_index, incarnation, aux, {}});
  update_gauge();
}

void SessionManager::handle_hello(std::size_t conn_index,
                                  const wire::Frame& frame,
                                  std::int64_t now_usec) {
  Conn& conn = conns_[conn_index];
  const std::size_t p = frame.member;
  if (p >= fleet_ || p == options_.self_index) {
    reject("hello member out of range");
    handle_closed(conn_index, now_usec);
    return;
  }
  Peer& peer = peers_[p];
  if (conn.outbound) {
    if (conn.peer != p) {
      reject("hello identity mismatch");
      if (conn.peer != kNoConn && peers_[conn.peer].conn == conn_index)
        peers_[conn.peer].conn = kNoConn;
      close_conn(conn_index);
      return;
    }
    if (peer.conn != kNoConn && peer.conn != conn_index && p < options_.self_index) {
      // Collision: for a pair of processes the session dialed by the
      // lower-index one wins, and that is the peer's dial, not ours.
      close_conn(conn_index);
      return;
    }
    if (frame.incarnation < peer.incarnation) {
      reject("stale incarnation hello");
      if (peer.conn == conn_index) peer.conn = kNoConn;
      close_conn(conn_index);
      note_refusal(p, now_usec);
      return;
    }
    establish(p, conn_index, frame.incarnation, frame.aux);
    return;
  }
  // Inbound conn: the HELLO is what binds it to a peer.
  if (frame.incarnation < peer.incarnation) {
    // A process we have already seen at a higher incarnation is a zombie
    // instance of that peer; its session must not displace the live one.
    reject("stale incarnation hello");
    handle_closed(conn_index, now_usec);
    return;
  }
  if (peer.conn != kNoConn && peer.conn != conn_index &&
      conns_[peer.conn].outbound && options_.self_index < p &&
      (peer.state != SessionState::kEstablished ||
       frame.incarnation == peer.incarnation)) {
    // Collision, and our dial wins the lower-index tie-break. Two live
    // processes dialing each other simultaneously is routine in a full
    // mesh — drop the duplicate quietly rather than flag a protocol
    // reject. While our dial's handshake is still in flight we have not
    // learned the peer's incarnation yet, so the equality clause must not
    // gate the drop then: both hellos come from the same live instance,
    // and honouring the inbound one here while the peer honours our dial
    // would make each side tear down the other's pick (a startup session
    // flap that shrinks the root's first live set). Once established, a
    // HIGHER inbound incarnation is a restarted peer and must replace the
    // session our now-dead counterparty left behind.
    close_conn(conn_index);
    return;
  }
  conn.peer = p;
  send_on_conn(conn_index, hello_bytes());  // complete the dialer's handshake
  establish(p, conn_index, frame.incarnation, frame.aux);
}

void SessionManager::dial_pass(std::int64_t now_usec) {
  for (std::size_t p = 0; p < fleet_; ++p) {
    if (p == options_.self_index) continue;
    Peer& peer = peers_[p];
    if (!peer.wanted || peer.conn != kNoConn ||
        now_usec < peer.next_dial_usec)
      continue;
    const PeerAddr addr = parse_peer(options_.peers[p], options_.allow_nonlocal);
    if (addr.port == 0) continue;  // undialable (ephemeral); it dials us
    peer.state = peer.ever_established ? SessionState::kRejoining
                                       : SessionState::kConnecting;
    bool pending = false;
    net::Fd socket = net::dial(addr.host, addr.port, &pending);
    if (!socket.valid()) {
      note_refusal(p, now_usec);
      continue;
    }
    const std::size_t c = add_conn(std::move(socket));
    conns_[c].outbound = true;
    conns_[c].connecting = pending;
    conns_[c].peer = p;
    conns_[c].handshake_deadline_usec = now_usec + options_.hello_timeout_usec;
    peer.conn = c;
    send_on_conn(c, hello_bytes());  // queued until the connect completes
  }
}

void SessionManager::expire_handshakes(std::int64_t now_usec) {
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    const Conn& conn = conns_[c];
    if (!conn.socket.valid() || now_usec < conn.handshake_deadline_usec)
      continue;
    const std::size_t p = conn.peer;
    if (p != kNoConn && peers_[p].conn == c &&
        peers_[p].state == SessionState::kEstablished)
      continue;
    const bool outbound = conn.outbound;
    reject("hello handshake timed out");
    close_conn(c);
    // A dial still connecting, or one the peer accepted but never answered
    // HELLO on, counts as a refusal: a stopped process's kernel happily
    // completes connections. An inbound connection that never said HELLO
    // is only closed; it names no peer.
    if (outbound && peers_[p].conn == c) {
      peers_[p].conn = kNoConn;
      note_refusal(p, now_usec);
    }
  }
}

void SessionManager::poll(std::int64_t now_usec) {
  if (!listener_.valid()) return;
  dial_pass(now_usec);
  ready_.assign(conns_.size() + 1, pollfd{-1, 0, 0});
  ready_[0] = {listener_.get(), POLLIN, 0};
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    const Conn& conn = conns_[c];
    if (conn.socket.valid())
      ready_[c + 1] = {conn.socket.get(),
                       static_cast<short>(conn.connecting ? POLLOUT : POLLIN),
                       0};
  }
  while (::poll(ready_.data(), ready_.size(), 0) < 0 && errno == EINTR) {
  }
  if (ready_[0].revents != 0) {
    for (;;) {
      net::Fd socket = net::accept_connection(listener_);
      if (!socket.valid()) break;
      conns_[add_conn(std::move(socket))].handshake_deadline_usec =
          now_usec + options_.hello_timeout_usec;
    }
  }
  // Slots opened by the accepts above are polled from the next pass on;
  // the fd check skips them and any slot closed earlier in this pass.
  for (std::size_t c = 0; c + 1 < ready_.size(); ++c) {
    const pollfd& ready = ready_[c + 1];
    if (ready.revents == 0 || ready.fd != conns_[c].socket.get()) continue;
    if (conns_[c].connecting)
      finish_dial(c, now_usec);
    else
      drain(c, now_usec);
  }
  expire_handshakes(now_usec);
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    Conn& conn = conns_[c];
    if (!conn.socket.valid() || conn.connecting) continue;
    if (!conn.broken) flush(conn);
    if (conn.broken) handle_closed(c, now_usec);
  }
}

std::vector<SessionManager::Event> SessionManager::take_events() {
  std::vector<Event> taken;
  taken.swap(events_);
  return taken;
}

void SessionManager::want(std::size_t peer_index, bool wanted) {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  SHAREGRID_EXPECTS(peer_index != options_.self_index);
  Peer& peer = peers_[peer_index];
  if (peer.wanted == wanted) return;
  peer.wanted = wanted;
  if (wanted) {
    if (peer.state == SessionState::kIdle || peer.state == SessionState::kLost) {
      peer.state = peer.ever_established ? SessionState::kLost
                                         : SessionState::kConnecting;
      peer.next_dial_usec = 0;  // dial at the next poll
      peer.backoff_usec = 0;
    }
    return;
  }
  if (peer.state == SessionState::kEstablished) return;  // session stays
  if (peer.conn != kNoConn) {
    close_conn(peer.conn);  // abandon the in-flight dial
    peer.conn = kNoConn;
  }
  peer.state =
      peer.ever_established ? SessionState::kLost : SessionState::kIdle;
}

void SessionManager::disconnect(std::size_t peer_index) {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  Peer& peer = peers_[peer_index];
  if (peer.conn == kNoConn) return;
  const bool was_established = peer.state == SessionState::kEstablished;
  close_conn(peer.conn);
  peer.conn = kNoConn;
  peer.state = peer.wanted
                   ? (peer.ever_established ? SessionState::kLost
                                            : SessionState::kConnecting)
                   : (peer.ever_established ? SessionState::kLost
                                            : SessionState::kIdle);
  if (peer.wanted) {
    peer.next_dial_usec = 0;
    peer.backoff_usec = 0;
  }
  if (was_established) update_gauge();
}

void SessionManager::send(std::size_t peer_index, const std::string& bytes) {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  const Peer& peer = peers_[peer_index];
  if (peer.state != SessionState::kEstablished || peer.conn == kNoConn) return;
  send_on_conn(peer.conn, bytes);
}

void SessionManager::broadcast(const std::string& bytes) {
  for (std::size_t p = 0; p < fleet_; ++p)
    if (peers_[p].state == SessionState::kEstablished) send(p, bytes);
}

SessionManager::SessionState SessionManager::state(
    std::size_t peer_index) const {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  return peers_[peer_index].state;
}

bool SessionManager::established(std::size_t peer_index) const {
  return state(peer_index) == SessionState::kEstablished;
}

std::size_t SessionManager::established_count() const {
  std::size_t n = 0;
  for (const Peer& peer : peers_)
    if (peer.state == SessionState::kEstablished) ++n;
  return n;
}

std::uint64_t SessionManager::peer_incarnation(std::size_t peer_index) const {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  return peers_[peer_index].incarnation;
}

std::uint64_t SessionManager::peer_aux(std::size_t peer_index) const {
  SHAREGRID_EXPECTS(peer_index < fleet_);
  return peers_[peer_index].aux;
}

std::size_t SessionManager::peers_ever_established() const {
  std::size_t n = 0;
  for (const Peer& peer : peers_)
    if (peer.ever_established) ++n;
  return n;
}

std::string SessionManager::hello_bytes() const {
  wire::Frame hello;
  hello.type = wire::FrameType::kHello;
  hello.member = static_cast<std::uint32_t>(options_.self_index);
  hello.incarnation = options_.incarnation;
  hello.aux = options_.hello_aux;
  return wire::encode(hello);
}

void SessionManager::update_gauge() const {
  sessions_gauge().set(static_cast<std::int64_t>(established_count()));
}

}  // namespace sharegrid::coord
