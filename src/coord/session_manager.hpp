// Per-peer session layer for the cross-process control plane.
//
// PR 9's SocketTransport wired its star once at start(): the root accepted
// anonymous connections forever and a leaf dialed process 0 exactly once —
// a dead peer's connection slot was never reclaimed and a restarted process
// could not re-dial into an assembled fleet. SessionManager owns that whole
// lifecycle instead, for every process symmetrically:
//
//   - every process listens on its own peers[self] address for the life of
//     the run (so any process can be dialed — the precondition for both
//     rejoin and root election);
//   - outbound sessions are driven by a want-set: want(p) dials peer p with
//     capped exponential backoff (reconnect_base_usec doubling up to
//     reconnect_max_usec, reset on success) until a session is established
//     or the peer is unwanted;
//   - a session exists only after a HELLO handshake in both directions.
//     HELLO carries the sender's process index, its incarnation number
//     (bumped each restart) and the global member range it hosts. A HELLO
//     whose incarnation is below the highest one seen from that process is
//     a zombie and is rejected; an equal-or-higher incarnation replaces any
//     existing session (that is a rejoin);
//   - per-peer session state is explicit — connecting / established / lost /
//     rejoining — and surfaced as metrics (coord.socket.sessions_active,
//     coord.socket.reconnects).
//
// The owner consumes a flat event stream from poll(): kPeerUp / kPeerDown /
// kDialRefused / kFrame. kDialRefused fires only when connect() itself is
// refused or a handshake times out — a live peer whose session drops mid-
// stream is kPeerDown + a rejoining redial, never a refusal — which is what
// lets the election layer read "every lower-id peer refuses my dials" as
// "every lower-id peer is dead".
//
// Threading: none of its own, the same contract as the rest of the coord
// stack. Every socket is non-blocking and all I/O happens inside
// poll(now_usec) on the caller's thread: one zero-timeout poll(2) over the
// listener and every connection, then accepts, reads and handshakes,
// finished dials and queued writes. send() writes what the socket takes at
// once and queues the rest for the next poll(); a peer that stops reading
// is dropped once its queue passes net::kMaxFrameBytes, so no call ever
// waits on a peer. The manager never reads a clock, so backoff and
// handshake timeouts are deterministic under test-supplied time.
//
// Simultaneous dials (two processes dialing each other while electing) are
// broken deterministically: for a pair of processes the session dialed by
// the lower-index one wins, on both sides, so the pair converges on one
// connection instead of repeatedly closing each other's.
#pragma once

#include <poll.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "coord/snapshot_wire.hpp"
#include "net/tcp.hpp"

namespace sharegrid::coord {

/// Owns dial/accept, the HELLO handshake, reconnect backoff and per-peer
/// session state for one process of a control-plane fleet.
class SessionManager {
 public:
  /// Explicit per-peer lifecycle, readable via state() and surfaced in the
  /// sessions_active gauge.
  enum class SessionState {
    kIdle,         ///< no session and none wanted
    kConnecting,   ///< first dial (never established before) in progress
    kEstablished,  ///< HELLO exchanged both ways; frames flow
    kLost,         ///< had a session, it died; waiting out the backoff
    kRejoining,    ///< re-dial after a loss (or of a restarted peer) underway
  };

  struct Options {
    /// host:port of every process, index-aligned with process indices. This
    /// process listens on its own entry; others are dial targets. A port of
    /// 0 marks a peer as inbound-only (it holds an ephemeral port and must
    /// dial us) — tests use this to avoid pre-picking ports.
    std::vector<std::string> peers;
    /// Which peers[] entry this process is.
    std::size_t self_index = 0;
    /// This process's incarnation, carried in every HELLO. Bump it on each
    /// restart: peers use it to tell a rejoining process from a zombie.
    std::uint64_t incarnation = 1;
    /// Overrides the port parsed from peers[self_index] (0 = use peers[];
    /// tests pass "host:0" and read the ephemeral listen_port()).
    std::uint16_t listen_port = 0;
    /// Loopback-only unless set: with false (default) every peer entry must
    /// be 127.0.0.1/localhost and the listener binds loopback; with true,
    /// peers may be any numeric IPv4 and the listener binds 0.0.0.0.
    bool allow_nonlocal = false;
    /// First re-dial delay after a refusal; doubles per refusal up to
    /// reconnect_max_usec, resets on an established session.
    std::int64_t reconnect_base_usec = 20000;
    std::int64_t reconnect_max_usec = 320000;
    /// A dialed peer whose connect is still pending or that accepts TCP but
    /// never answers HELLO (e.g. a stopped process whose kernel still
    /// completes connections) is treated as a refusal after this long.
    std::int64_t hello_timeout_usec = 500000;
    /// Opaque payload for our HELLO frames; the transport packs the global
    /// member range it hosts as (member_offset << 32) | member_count.
    std::uint64_t hello_aux = 0;
    /// Invoked from poll() for every dropped frame: undecodable bytes,
    /// zombie HELLOs, pre-HELLO frames. The transport points this at its
    /// frames_rejected counter so one count covers the whole receive path.
    std::function<void(const char*)> on_reject;
  };

  /// One poll() outcome, consumed in order via take_events().
  struct Event {
    enum class Kind {
      kPeerUp,       ///< session established (incarnation/aux from its HELLO)
      kPeerDown,     ///< established session died
      kDialRefused,  ///< connect() refused or handshake timed out
      kFrame,        ///< non-HELLO frame from an established session
    };
    Kind kind = Kind::kFrame;
    std::size_t peer = 0;
    std::uint64_t incarnation = 0;  ///< kPeerUp only
    std::uint64_t aux = 0;          ///< kPeerUp only
    wire::Frame frame;              ///< kFrame only
  };

  explicit SessionManager(Options options);

  /// Binds the listener. Accepts and dials happen in poll().
  void start();
  /// Closes the listener and every connection, without events.
  void stop();

  /// Does all of the session layer's I/O against the caller's monotonic
  /// clock: starts due dials, accepts, reads and decodes frames, runs the
  /// handshakes, finishes dials, times out handshakes and flushes queued
  /// writes. Single poll thread, same contract as SocketTransport::poll.
  void poll(std::int64_t now_usec);

  /// Drains the events poll() produced, in arrival order.
  std::vector<Event> take_events();

  /// Marks peer as a dial target (or not). Unwanting a peer abandons any
  /// in-flight dial but leaves an established session alone — use
  /// disconnect() to drop one.
  void want(std::size_t peer, bool wanted);

  /// Deliberately drops peer's session (no kPeerDown — the owner asked).
  /// A still-wanted peer re-enters the dial loop.
  void disconnect(std::size_t peer);

  /// Sends one framed message to peer; silently dropped unless established
  /// (the session layer's answer to "the peer is gone" is events, not
  /// errors on every send site). Never blocks: what the socket does not
  /// take now is queued, and a hard error or a queue past
  /// net::kMaxFrameBytes makes the next poll() drop the session
  /// (kPeerDown, then a redial).
  void send(std::size_t peer, const std::string& bytes);

  /// send() to every established peer.
  void broadcast(const std::string& bytes);

  SessionState state(std::size_t peer) const;
  bool established(std::size_t peer) const;
  std::size_t established_count() const;
  /// Incarnation from the peer's most recent accepted HELLO (0 = never).
  std::uint64_t peer_incarnation(std::size_t peer) const;
  /// aux from the peer's most recent accepted HELLO.
  std::uint64_t peer_aux(std::size_t peer) const;

  /// The bound port (after start()); valid with ephemeral binds.
  std::uint16_t listen_port() const { return listen_port_; }
  /// Sessions that re-established after a loss or refusal, fleet-lifetime.
  std::uint64_t reconnects() const { return reconnects_; }
  /// Distinct peers that have ever reached kEstablished.
  std::size_t peers_ever_established() const;

  /// Validates one "host:port" peer entry and splits it. Enforces loopback
  /// unless @p allow_nonlocal; throws ContractViolation on violations.
  struct PeerAddr {
    std::string host;
    std::uint16_t port = 0;
  };
  static PeerAddr parse_peer(const std::string& peer, bool allow_nonlocal);

 private:
  static constexpr std::size_t kNoConn = static_cast<std::size_t>(-1);

  /// One connection slot; a slot whose socket is closed is free for reuse.
  struct Conn {
    net::Fd socket;
    net::FrameReader frames;
    std::string unsent;          ///< framed bytes the socket has not taken
    bool outbound = false;       ///< we dialed it (peer is the dial target)
    bool connecting = false;     ///< the non-blocking connect is in flight
    bool broken = false;         ///< a write failed or overflowed
    std::size_t peer = kNoConn;  ///< bound process index (outbound: target)
  };

  /// State of one peer process.
  struct Peer {
    SessionState state = SessionState::kIdle;
    bool wanted = false;
    bool ever_established = false;
    std::size_t conn = kNoConn;  ///< established or handshaking outbound conn
    std::uint64_t incarnation = 0;
    std::uint64_t aux = 0;
    std::int64_t next_dial_usec = 0;
    std::int64_t backoff_usec = 0;  ///< 0 = dial immediately when wanted
    std::int64_t handshake_deadline_usec = 0;
  };

  void reject(const char* why);
  std::size_t add_conn(net::Fd socket);
  void drain(std::size_t conn_index, std::int64_t now_usec);
  void handle_frame(std::size_t conn_index, wire::Frame frame,
                    std::int64_t now_usec);
  void finish_dial(std::size_t conn_index, std::int64_t now_usec);
  void send_on_conn(std::size_t conn_index, const std::string& bytes);
  void flush(Conn& conn);
  void close_conn(std::size_t conn_index);
  void handle_closed(std::size_t conn_index, std::int64_t now_usec);
  void handle_hello(std::size_t conn_index, const wire::Frame& frame,
                    std::int64_t now_usec);
  void establish(std::size_t peer, std::size_t conn_index,
                 std::uint64_t incarnation, std::uint64_t aux);
  void dial_pass(std::int64_t now_usec);
  void expire_handshakes(std::int64_t now_usec);
  void note_refusal(std::size_t peer, std::int64_t now_usec);
  std::string hello_bytes() const;
  void update_gauge() const;

  Options options_;
  std::size_t fleet_;  ///< peers.size()
  net::Fd listener_;   ///< open between start() and stop()
  std::uint16_t listen_port_ = 0;
  std::uint64_t reconnects_ = 0;
  std::vector<Conn> conns_;
  std::vector<Peer> peers_;
  std::vector<Event> events_;
  std::vector<pollfd> ready_;  ///< poll(2) set: the listener, then conns_
};

const char* to_string(SessionManager::SessionState state);

}  // namespace sharegrid::coord
