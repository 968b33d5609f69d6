// Tests for the hardened bottom networking layer (src/net/tcp.hpp): the
// tri-state read result that distinguishes a stalled peer from a dead one,
// EINTR retry under deliberate signal bombardment, and the length-prefixed
// framing the socket control plane rides on. The suite is named Tcp so the
// CI ThreadSanitizer stage's filter picks it up alongside the control-plane
// suites.
#include <gtest/gtest.h>

#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp.hpp"
#include "util/assert.hpp"

namespace sharegrid {
namespace {

/// Listener + connected client pair on an ephemeral loopback port.
struct LoopbackPair {
  net::Socket listener;
  net::Socket client;
  net::Socket server;

  LoopbackPair() {
    listener = net::Socket::listen_on_loopback(0);
    client = net::Socket::connect_loopback(listener.local_port());
    server = listener.accept();
  }
};

TEST(Tcp, LoopbackRoundTrip) {
  LoopbackPair pair;
  pair.client.write_all("ping");
  const net::ReadResult request = pair.server.read_some();
  ASSERT_EQ(request.status, net::ReadStatus::kData);
  EXPECT_EQ(request.data, "ping");
  pair.server.write_all("pong");
  const net::ReadResult reply = pair.client.read_some();
  ASSERT_EQ(reply.status, net::ReadStatus::kData);
  EXPECT_EQ(reply.data, "pong");
}

TEST(Tcp, ConnectToClosedPortFails) {
  // Grab an ephemeral port, then free it: connecting afterwards must throw
  // rather than hang.
  std::uint16_t port = 0;
  {
    const net::Socket probe = net::Socket::listen_on_loopback(0);
    port = probe.local_port();
  }
  EXPECT_THROW(net::Socket::connect_loopback(port), ContractViolation);
}

// The satellite regression: a peer that is merely slow must surface as
// kTimedOut — repeatedly, without tearing anything down — and only an actual
// close may surface as kClosed. The old API returned an empty string for
// both, so callers gave up on stalled-but-alive peers.
TEST(Tcp, StalledPeerTimesOutWithoutClosing) {
  LoopbackPair pair;
  pair.client.set_read_timeout_ms(40);

  const net::ReadResult first = pair.client.read_some();
  EXPECT_EQ(first.status, net::ReadStatus::kTimedOut);
  EXPECT_TRUE(first.data.empty());
  // Still alive: a second attempt times out again instead of reporting the
  // peer gone, and the connection still carries data afterwards.
  EXPECT_EQ(pair.client.read_some().status, net::ReadStatus::kTimedOut);
  pair.server.write_all("late");
  const net::ReadResult late = pair.client.read_some();
  ASSERT_EQ(late.status, net::ReadStatus::kData);
  EXPECT_EQ(late.data, "late");

  pair.server.close();
  // Drain until the close shows; it must be kClosed, never a timeout.
  net::ReadResult last = pair.client.read_some();
  while (last.status == net::ReadStatus::kData) last = pair.client.read_some();
  EXPECT_EQ(last.status, net::ReadStatus::kClosed);
}

void noop_handler(int) {}

// EINTR hardening: bombard the reading thread with SIGALRM (installed
// without SA_RESTART, so recv() really does return EINTR) while a large
// transfer is in flight. Every byte must arrive and no read may masquerade
// as a peer close.
TEST(Tcp, SignalStormDoesNotCorruptReads) {
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = noop_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(sigaction(SIGALRM, &action, &previous), 0);

  constexpr std::size_t kTotal = 4 * 1024 * 1024;
  LoopbackPair pair;
  std::thread writer([&] {
    const std::string chunk(64 * 1024, 'x');
    std::size_t sent = 0;
    while (sent < kTotal) {
      pair.server.write_all(chunk);
      sent += chunk.size();
    }
    pair.server.close();
  });

  std::atomic<bool> reading{true};
  const pthread_t reader_thread = pthread_self();
  std::thread bomber([&] {
    while (reading.load()) {
      pthread_kill(reader_thread, SIGALRM);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::size_t received = 0;
  bool closed = false;
  while (!closed) {
    const net::ReadResult result = pair.client.read_some();
    switch (result.status) {
      case net::ReadStatus::kData:
        received += result.data.size();
        break;
      case net::ReadStatus::kTimedOut:
        break;  // keep waiting; the writer may be scheduled out
      case net::ReadStatus::kClosed:
        closed = true;
        break;
    }
  }
  reading.store(false);
  bomber.join();
  writer.join();
  ASSERT_EQ(sigaction(SIGALRM, &previous, nullptr), 0);

  // A signal that leaked through as a false close would truncate this.
  EXPECT_EQ(received, kTotal);
}

TEST(Tcp, FramesSurviveDribbledDelivery) {
  const std::string payload = "snapshot-vector-bytes";
  std::string wire;
  {
    // Build the on-the-wire image via a real socket round trip.
    LoopbackPair pair;
    pair.client.write_frame(payload);
    pair.client.write_frame("");  // empty frames are legal
    net::ReadResult r = pair.server.read_some();
    while (r.status == net::ReadStatus::kData) {
      wire += r.data;
      if (wire.size() >= 4 + payload.size() + 4) break;
      r = pair.server.read_some();
    }
  }
  ASSERT_EQ(wire.size(), 4 + payload.size() + 4);

  // One byte at a time: the reader must reassemble both frames exactly.
  net::FrameReader reader;
  std::vector<std::string> frames;
  std::string frame;
  for (const char byte : wire) {
    reader.feed(std::string_view(&byte, 1));
    while (reader.next(&frame) == net::FrameReader::Event::kFrame)
      frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], payload);
  EXPECT_EQ(frames[1], "");
}

TEST(Tcp, OversizedLengthPrefixIsSticky) {
  net::FrameReader reader(/*max_frame_bytes=*/1024);
  // Length prefix claims 1 MiB; the reader must refuse without buffering.
  const std::uint32_t huge = 1 << 20;
  std::string prefix;
  for (int i = 0; i < 4; ++i)
    prefix.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  reader.feed(prefix);
  std::string frame;
  EXPECT_EQ(reader.next(&frame), net::FrameReader::Event::kOversized);
  // Framing is unrecoverable: even valid-looking bytes afterwards must keep
  // reporting kOversized so the owner drops the connection.
  reader.feed(std::string("\x01\x00\x00\x00x", 5));
  EXPECT_EQ(reader.next(&frame), net::FrameReader::Event::kOversized);
}

// The host-address helpers behind the coord layer's allow_nonlocal flag:
// numeric IPv4 only, no DNS, and loopback addresses work through them. Both
// ends are non-blocking, so the test waits for readiness with poll(2).
TEST(Tcp, ExplicitAddressConnectAndListen) {
  const auto wait_for = [](const net::Fd& fd, short events) {
    pollfd ready{fd.get(), events, 0};
    return ::poll(&ready, 1, 2000) == 1;
  };
  const net::Fd listener = net::listen_on("127.0.0.1", 0);
  bool pending = false;
  const net::Fd client =
      net::dial("127.0.0.1", net::local_port(listener), &pending);
  ASSERT_TRUE(client.valid());
  ASSERT_TRUE(wait_for(client, POLLOUT));
  EXPECT_EQ(net::connect_error(client), 0);
  ASSERT_TRUE(wait_for(listener, POLLIN));
  const net::Fd server = net::accept_connection(listener);
  ASSERT_TRUE(server.valid());
  ASSERT_EQ(net::send_some(client, "hello", 5), 5);
  ASSERT_TRUE(wait_for(server, POLLIN));
  char got[16];
  ASSERT_EQ(::recv(server.get(), got, sizeof got, 0), 5);
  EXPECT_EQ(std::string(got, 5), "hello");

  // Hostnames are configuration errors, not resolution requests.
  try {
    net::dial("control-plane.internal", 7000, &pending);
    FAIL() << "hostname accepted by the numeric-IPv4-only dial";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("numeric IPv4"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(net::listen_on("not-an-address", 0), ContractViolation);
  EXPECT_THROW(net::dial("", 7000, &pending), ContractViolation);
}

}  // namespace
}  // namespace sharegrid
