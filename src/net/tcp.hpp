// The one TCP socket layer: owning descriptors, non-blocking listen/accept/
// dial for the event-driven owners, a blocking client helper, and the
// length-prefixed framing the socket control plane rides on.
//
// Loopback-first by design: the live service and the socket control plane
// exist to demonstrate that the scheduling stack drives real processes (as
// the paper's prototype did), not to be an internet-facing server. listen_on()
// and dial() take an explicit numeric IPv4 address so a second host can be
// tested, but the coord layer only passes a non-loopback one behind its
// allow_nonlocal flag — the loopback validation stays on unless a scenario
// opts out.
//
// Two kinds of owner use it. The live services' event loops and the control
// plane's session layer are non-blocking: they hold Fds from listen_on(),
// accept_connection() and dial(), and move bytes only when the socket is
// ready. Tests, examples and the benchmark drive them as clients through
// the blocking Socket, whose reads carry a timeout so a test can never hang
// on a stuck peer.
//
// This is the bottom networking layer (below both `live` and `coord` in the
// include DAG, see tools/analyze/include_graph.hpp): the live L4/L7 services
// and the cross-process snapshot transport share these sockets without the
// control plane having to depend on the data plane.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace sharegrid::net {

/// The largest frame FrameReader accepts, and the most unsent bytes the
/// session layer queues for one peer before it counts the peer as lost.
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

/// Owning file descriptor: closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// A non-blocking listener bound to the numeric IPv4 address @p host
/// ("0.0.0.0" to accept from any interface) at @p port (0 = ephemeral). No
/// DNS. Throws ContractViolation on a malformed address or a failed bind.
Fd listen_on(const std::string& host = "127.0.0.1", std::uint16_t port = 0);
/// The port @p socket is bound to.
std::uint16_t local_port(const Fd& socket);
/// Accepts one pending connection as a non-blocking, TCP_NODELAY socket;
/// an invalid Fd when none is pending.
Fd accept_connection(const Fd& listener);
/// Starts a non-blocking dial of the numeric IPv4 @p host:@p port. Returns
/// an invalid Fd when the dial failed at once; otherwise *@p pending says
/// whether the handshake is still in flight (wait until the socket is
/// writable, then connect_error()). Throws ContractViolation on a malformed
/// address — peers in a sharing fleet are configuration, not names to
/// resolve at dial time.
Fd dial(const std::string& host, std::uint16_t port, bool* pending);
/// Outcome of a finished non-blocking dial: 0 when connected, else errno.
int connect_error(const Fd& socket);
/// Sends as much of @p data as @p to takes now. Returns the bytes sent (0
/// when the socket would block), or -1 on a hard error (the peer is gone).
ssize_t send_some(const Fd& to, const char* data, std::size_t size);
/// Appends a u32 little-endian length prefix and @p payload to @p out. The
/// receiving side reassembles with FrameReader.
void append_frame(std::string* out, std::string_view payload);

/// What a read attempt observed. Timeouts and peer closes used to be
/// conflated (both surfaced as an empty string), which made it impossible
/// for callers to tell "slow peer, keep waiting" from "peer gone, give up".
enum class ReadStatus {
  kData,      ///< bytes arrived (ReadResult::data is non-empty)
  kTimedOut,  ///< SO_RCVTIMEO expired with nothing to read; peer still there
  kClosed,    ///< orderly close or a hard socket error; peer is gone
};

/// One read attempt: the bytes (empty unless status == kData) and what the
/// socket reported.
struct ReadResult {
  std::string data;
  ReadStatus status = ReadStatus::kClosed;
};

/// Blocking client helper over a connected or listening TCP socket on
/// 127.0.0.1, for the code that drives the services from outside.
class Socket {
 public:
  Socket() = default;

  /// Creates a listening socket bound to 127.0.0.1:@p port (0 = ephemeral).
  static Socket listen_on_loopback(std::uint16_t port = 0, int backlog = 16);

  /// Connects to 127.0.0.1:@p port. Throws ContractViolation when refused.
  static Socket connect_loopback(std::uint16_t port);

  /// Blocks until a peer connects; the returned socket has the same read
  /// timeout applied. Throws on error or accept timeout.
  Socket accept() const;

  /// Port this socket is bound to (listening sockets).
  std::uint16_t local_port() const;

  /// Reads until the HTTP header terminator (blank line) or EOF; returns
  /// everything read. Empty result means the peer closed immediately or the
  /// read timed out. Capped at 64 KiB.
  std::string read_http_head() const;

  /// Reads whatever is available (up to 16 KiB). The status disambiguates
  /// an empty result: kTimedOut means the peer is merely slow, kClosed
  /// means it is gone. For protocol-agnostic relaying and frame pumps.
  ReadResult read_some() const;

  /// Writes the whole buffer, retrying on EINTR and short writes (throws
  /// ContractViolation on a hard error).
  void write_all(std::string_view data) const;

  /// Writes one length-prefixed frame (append_frame) of @p payload.
  void write_frame(std::string_view payload) const;

  /// Overrides the default 5 s receive timeout (also paces accept() on
  /// listening sockets). Tests use tight timeouts to exercise the
  /// stalled-peer paths without multi-second waits.
  void set_read_timeout_ms(int timeout_ms) const;

  bool valid() const { return fd_.valid(); }
  void close() { fd_.reset(); }

 private:
  explicit Socket(Fd fd);

  Fd fd_;
};

/// Incremental decoder for the u32-length-prefixed frames append_frame()
/// produces. Feed it whatever the socket returns — TCP is free to dribble
/// a frame one byte at a time or to coalesce several — and pull complete
/// frames out with next().
class FrameReader {
 public:
  /// @p max_frame_bytes guards against a hostile or corrupt length prefix
  /// committing us to buffering gigabytes; an over-limit prefix surfaces as
  /// kOversized and the connection should be dropped.
  explicit FrameReader(std::size_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(std::string_view bytes) { buffer_.append(bytes); }

  enum class Event {
    kFrame,     ///< *frame holds one complete payload (prefix stripped)
    kNeedMore,  ///< partial prefix or partial payload; feed() more bytes
    kOversized, ///< length prefix exceeds the cap; abandon the connection
  };

  /// Extracts the next complete frame if one is buffered. kOversized is
  /// sticky: the stream is unframeable from that point on.
  Event next(std::string* frame);

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
  bool oversized_ = false;
};

}  // namespace sharegrid::net
