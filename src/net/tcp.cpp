#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/assert.hpp"

namespace sharegrid::net {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw ContractViolation("tcp: " + what + ": " + std::strerror(errno));
}

/// Numeric IPv4 only — inet_pton, no DNS. Throws on a malformed address so
/// a typo in a peers list fails at configuration time, not as a mysterious
/// connect error.
sockaddr_in numeric_ipv4(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw ContractViolation("tcp: '" + host +
                            "' is not a numeric IPv4 address");
  return addr;
}

/// recv() with the EINTR retry every blocking syscall here needs: a signal
/// delivered mid-read (tests fire SIGALRM on purpose) must not masquerade
/// as a peer close.
ssize_t recv_retry(int fd, char* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// Disable Nagle on connected sockets. Control-plane traffic is tiny
/// latency-sensitive frames, often two back-to-back on one socket (aggregate
/// then next round-start); with Nagle on, the second write stalls ~40 ms
/// behind the peer's delayed ACK, which is longer than a snapshot deadline.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// A TCP listener of socket(2) @p flags bound to @p host:@p port.
Fd open_listener(const std::string& host, std::uint16_t port, int flags,
                 int backlog) {
  const sockaddr_in addr = numeric_ipv4(host, port);
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | flags, 0));
  if (!fd.valid()) fail("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    fail("bind");
  if (::listen(fd.get(), backlog) != 0) fail("listen");
  return fd;
}

/// A TCP_NODELAY socket of socket(2) @p flags with its connect() to @p host:
/// @p port issued; *@p error is 0 or the errno of socket() or connect().
Fd open_dial(const std::string& host, std::uint16_t port, int flags,
             int* error) {
  const sockaddr_in addr = numeric_ipv4(host, port);
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | flags, 0));
  if (!fd.valid()) {
    *error = errno;
    return fd;
  }
  set_nodelay(fd.get());
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr);
  } while (rc != 0 && errno == EINTR);
  *error = rc == 0 ? 0 : errno;
  return fd;
}

/// Applies the default 5 s receive timeout of a blocking Socket.
void set_default_timeout(int fd) {
  timeval tv{};
  tv.tv_sec = 5;  // generous for loopback; prevents test hangs
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
}

Fd listen_on(const std::string& host, std::uint16_t port) {
  return open_listener(host, port, SOCK_NONBLOCK, SOMAXCONN);
}

std::uint16_t local_port(const Fd& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(socket.get(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0)
    fail("getsockname");
  return ntohs(addr.sin_port);
}

Fd accept_connection(const Fd& listener) {
  for (;;) {
    const int fd = ::accept4(listener.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      set_nodelay(fd);
      return Fd(fd);
    }
    // EINTR and a connection aborted while queued: try the next one. Any
    // other error (EAGAIN when the queue is empty, or fd exhaustion) ends
    // this round of accepts; the listener stays readable for the next.
    if (errno != EINTR && errno != ECONNABORTED) return Fd();
  }
}

Fd dial(const std::string& host, std::uint16_t port, bool* pending) {
  int error = 0;
  Fd fd = open_dial(host, port, SOCK_NONBLOCK, &error);
  *pending = error == EINPROGRESS;
  if (error != 0 && !*pending) fd.reset();
  return fd;
}

int connect_error(const Fd& socket) {
  int error = 0;
  socklen_t len = sizeof error;
  if (::getsockopt(socket.get(), SOL_SOCKET, SO_ERROR, &error, &len) != 0)
    return errno;
  return error;
}

ssize_t send_some(const Fd& to, const char* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::send(to.get(), data, size, MSG_NOSIGNAL);
    if (n >= 0) return n;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno != EINTR) return -1;
  }
}

void append_frame(std::string* out, std::string_view payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int shift = 0; shift < 32; shift += 8)
    out->push_back(static_cast<char>((len >> shift) & 0xff));
  out->append(payload);
}

Socket::Socket(Fd fd) : fd_(std::move(fd)) { set_default_timeout(fd_.get()); }

void Socket::set_read_timeout_ms(int timeout_ms) const {
  SHAREGRID_EXPECTS(valid());
  SHAREGRID_EXPECTS(timeout_ms > 0);
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

Socket Socket::listen_on_loopback(std::uint16_t port, int backlog) {
  return Socket(open_listener("127.0.0.1", port, 0, backlog));
}

Socket Socket::connect_loopback(std::uint16_t port) {
  int error = 0;
  Fd fd = open_dial("127.0.0.1", port, 0, &error);
  if (error != 0) {
    errno = error;
    fail("connect");
  }
  return Socket(std::move(fd));
}

Socket Socket::accept() const {
  SHAREGRID_EXPECTS(valid());
  int fd;
  do {
    fd = ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) fail("accept");
  set_nodelay(fd);
  return Socket(Fd(fd));
}

std::uint16_t Socket::local_port() const {
  SHAREGRID_EXPECTS(valid());
  return net::local_port(fd_);
}

std::string Socket::read_http_head() const {
  SHAREGRID_EXPECTS(valid());
  std::string buffer;
  char chunk[1024];
  while (buffer.size() < 64 * 1024) {
    const ssize_t n = recv_retry(fd_.get(), chunk, sizeof(chunk));
    if (n <= 0) break;  // peer closed, error, or timeout
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.find("\r\n\r\n") != std::string::npos ||
        buffer.find("\n\n") != std::string::npos)
      break;
  }
  return buffer;
}

ReadResult Socket::read_some() const {
  SHAREGRID_EXPECTS(valid());
  char chunk[16 * 1024];
  const ssize_t n = recv_retry(fd_.get(), chunk, sizeof(chunk));
  if (n > 0)
    return {std::string(chunk, static_cast<std::size_t>(n)),
            ReadStatus::kData};
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
    return {{}, ReadStatus::kTimedOut};
  return {{}, ReadStatus::kClosed};  // orderly close or hard error
}

void Socket::write_all(std::string_view data) const {
  SHAREGRID_EXPECTS(valid());
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_.get(), data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // interrupted mid-write: retry
    if (n <= 0) fail("send");
    sent += static_cast<std::size_t>(n);
  }
}

void Socket::write_frame(std::string_view payload) const {
  std::string framed;
  framed.reserve(4 + payload.size());
  append_frame(&framed, payload);
  write_all(framed);
}

FrameReader::Event FrameReader::next(std::string* frame) {
  if (oversized_) return Event::kOversized;
  if (buffer_.size() < 4) return Event::kNeedMore;
  const auto byte = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[i]));
  };
  const std::uint32_t len =
      byte(0) | (byte(1) << 8) | (byte(2) << 16) | (byte(3) << 24);
  if (len > max_frame_bytes_) {
    oversized_ = true;  // stream framing is lost for good; caller must drop
    return Event::kOversized;
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(len))
    return Event::kNeedMore;
  frame->assign(buffer_, 4, len);
  buffer_.erase(0, 4 + static_cast<std::size_t>(len));
  return Event::kFrame;
}

}  // namespace sharegrid::net
