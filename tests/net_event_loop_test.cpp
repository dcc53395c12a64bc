// Epoll event-loop tests: ByteRing mechanics, port-0 listener adoption,
// frame reassembly across partial transfers (tiny SO_SNDBUF/SO_RCVBUF),
// corrupt frames on a live connection, slow-client eviction vs
// transport-mode overflow, a 1000-connection accept storm, post()/call() and
// the loop-thread contract, and EINTR injection through the net::testhooks
// syscall seams.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/event_loop.h"
#include "rpc/wire.h"

namespace escape::net {
namespace {

using namespace std::chrono_literals;

// --- ByteRing ----------------------------------------------------------------

TEST(ByteRingTest, AppendPeekConsumeRoundtrip) {
  ByteRing ring;
  EXPECT_TRUE(ring.empty());
  std::vector<std::uint8_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  ring.append(data.data(), data.size());
  EXPECT_EQ(ring.size(), 100u);

  std::vector<std::uint8_t> out(100);
  ring.peek(0, out.data(), out.size());
  EXPECT_EQ(out, data);

  ring.consume(40);
  EXPECT_EQ(ring.size(), 60u);
  std::vector<std::uint8_t> tail(60);
  ring.peek(0, tail.data(), tail.size());
  EXPECT_EQ(tail, std::vector<std::uint8_t>(data.begin() + 40, data.end()));
}

TEST(ByteRingTest, WrapAroundPreservesBytes) {
  ByteRing ring;
  // Fill, drain most, then append past the physical end so the data wraps.
  std::vector<std::uint8_t> first(48, 0xAA);
  ring.append(first.data(), first.size());
  const std::size_t cap = ring.capacity();
  ring.consume(40);
  std::vector<std::uint8_t> second(cap - 16, 0xBB);  // forces head < tail wrap
  ring.append(second.data(), second.size());

  std::vector<std::uint8_t> out(ring.size());
  ring.peek(0, out.data(), out.size());
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], 0xAA) << i;
  for (std::size_t i = 8; i < out.size(); ++i) ASSERT_EQ(out[i], 0xBB) << i;

  // head_span is contiguous and may be shorter than size() when wrapped;
  // consuming span-by-span must still walk every byte exactly once.
  std::size_t seen = 0;
  while (!ring.empty()) {
    const auto [ptr, len] = ring.head_span();
    ASSERT_GT(len, 0u);
    ASSERT_LE(len, ring.size());
    seen += len;
    ring.consume(len);
  }
  EXPECT_EQ(seen, out.size());
}

TEST(ByteRingTest, TailSpanProduceMatchesAppend) {
  ByteRing ring;
  const auto [ptr, len] = ring.tail_span(1000);
  ASSERT_GE(len, 1000u);
  for (std::size_t i = 0; i < 1000; ++i) ptr[i] = static_cast<std::uint8_t>(i % 251);
  ring.produce(1000);
  EXPECT_EQ(ring.size(), 1000u);
  std::vector<std::uint8_t> out(1000);
  ring.peek(0, out.data(), out.size());
  for (std::size_t i = 0; i < 1000; ++i) ASSERT_EQ(out[i], i % 251) << i;
}

TEST(ByteRingTest, GrowsAcrossPowerOfTwoBoundaries) {
  ByteRing ring;
  std::vector<std::uint8_t> chunk(777);
  std::iota(chunk.begin(), chunk.end(), 1);
  for (int i = 0; i < 100; ++i) ring.append(chunk.data(), chunk.size());
  EXPECT_EQ(ring.size(), 77700u);
  // Capacity stays a power of two (or zero before first use).
  const std::size_t cap = ring.capacity();
  EXPECT_EQ(cap & (cap - 1), 0u);
  std::vector<std::uint8_t> out(chunk.size());
  ring.peek(99 * chunk.size(), out.data(), out.size());
  EXPECT_EQ(out, chunk);
}

// --- helpers for socket tests ------------------------------------------------

int connect_blocking(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (rcvbuf > 0) ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

/// Reads frames from `fd` until `count` payloads arrive (or 10 s pass).
std::vector<std::vector<std::uint8_t>> read_frames(int fd, std::size_t count) {
  std::vector<std::vector<std::uint8_t>> payloads;
  rpc::FrameReader reader;
  std::vector<std::uint8_t> buf(64 * 1024);
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  while (payloads.size() < count) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reader.feed(buf.data(), static_cast<std::size_t>(n));
    while (auto payload = reader.next()) payloads.push_back(std::move(*payload));
  }
  return payloads;
}

/// Accepts one connection on a nonblocking listener, polling for up to 5 s.
int accept_within(int listen_fd) {
  int peer = -1;
  for (int i = 0; i < 500 && peer < 0; ++i) {
    peer = ::accept(listen_fd, nullptr, nullptr);
    if (peer < 0) std::this_thread::sleep_for(10ms);
  }
  return peer;
}

/// An EventLoop that echoes every inbound frame payload back on the same
/// connection — the minimal server exercising the full read/parse/write path.
struct EchoLoop {
  EventLoop loop;
  EventLoop::ServiceId service;

  explicit EchoLoop(EventLoop::Options options = {}) {
    EventLoop::Handler h;
    h.on_frames = [this](EventLoop::ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames) {
      for (const auto& payload : frames) loop.send(conn, rpc::frame_payload(payload));
    };
    service = loop.add_service(std::move(h), options);
  }

  std::uint16_t start() {
    loop.listen(service, bind_loopback_listener(0));
    loop.start();
    return loop.port(service);
  }

  const EventLoopStats& stats() const { return loop.stats(service); }
};

// --- port-0 listeners --------------------------------------------------------

TEST(EventLoopTest, PortZeroListenersGetDistinctKernelPorts) {
  const BoundListener a = bind_loopback_listener(0);
  const BoundListener b = bind_loopback_listener(0);
  EXPECT_GT(a.port, 0);
  EXPECT_GT(b.port, 0);
  EXPECT_NE(a.port, b.port);
  ::close(a.fd);
  ::close(b.fd);
}

TEST(EventLoopTest, AdoptsPreBoundListenerAndEchoes) {
  EchoLoop echo;
  const BoundListener listener = bind_loopback_listener(0);
  const std::uint16_t port = listener.port;
  echo.loop.listen(echo.service, listener);
  echo.loop.start();
  EXPECT_EQ(echo.loop.port(echo.service), port);

  const int fd = connect_blocking(port);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  send_all(fd, rpc::frame_payload(payload));
  const auto got = read_frames(fd, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  ::close(fd);
  echo.loop.stop();
}

// --- partial transfers -------------------------------------------------------

TEST(EventLoopTest, LargeFramesSurviveTinySocketBuffers) {
  // 64 KiB payloads across 4 KiB socket buffers: every frame spans many
  // partial recv()s on the way in and many partial send()s on the way out,
  // so reassembly exercises the ring-buffer framing in both directions.
  EventLoop::Options tiny;
  tiny.sndbuf = 4096;
  tiny.rcvbuf = 4096;
  EchoLoop echo(tiny);
  const std::uint16_t port = echo.start();

  const int fd = connect_blocking(port);
  constexpr int kCount = 10;
  std::vector<std::vector<std::uint8_t>> sent;
  std::thread writer([&] {
    for (int i = 0; i < kCount; ++i) {
      std::vector<std::uint8_t> payload(64 * 1024, static_cast<std::uint8_t>(i + 1));
      send_all(fd, rpc::frame_payload(payload));
      sent.push_back(std::move(payload));
    }
  });
  const auto got = read_frames(fd, kCount);
  writer.join();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], sent[static_cast<std::size_t>(i)]) << i;
  ::close(fd);
  echo.loop.stop();
  EXPECT_GE(echo.stats().frames_in.load(), static_cast<std::uint64_t>(kCount));
}

// --- corrupt frames ----------------------------------------------------------
// The loop parses frames in place on its input rings, not through
// rpc::FrameReader: WireTest's corrupt inputs, sent to a live service.

/// True when the peer closes `fd` (EOF or reset) within 10 s without
/// sending anything first.
bool peer_closes(int fd) {
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::uint8_t byte;
  for (;;) {
    const ssize_t n = ::recv(fd, &byte, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    return n == 0 || (n < 0 && errno == ECONNRESET);
  }
}

TEST(EventLoopTest, CorruptFrameClosesTheConnectionAfterTheFramesBeforeIt) {
  const std::vector<std::uint8_t> intact = {1, 2, 3};
  const auto good = rpc::frame_payload({9, 8, 7, 6});
  const auto edited = [&](std::size_t at, std::uint8_t value) {
    auto frame = good;
    frame[at] = value;
    return frame;
  };
  Encoder oversized;
  oversized.u16(rpc::kWireMagic);
  oversized.u8(rpc::kWireVersion);
  oversized.u8(0);
  oversized.u32(rpc::kMaxFrameBytes + 1);
  oversized.u32(0);
  const std::vector<std::pair<const char*, std::vector<std::uint8_t>>> cases = {
      {"bad magic", edited(0, good[0] ^ 0xFF)},
      {"bad version", edited(2, 0x7E)},
      {"nonzero flags", edited(3, 0x01)},
      {"CRC flip", edited(good.size() - 1, good.back() ^ 0x01)},
      {"length above kMaxFrameBytes", oversized.take()},
  };

  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> delivered;  // guarded by mu
  EventLoop loop;
  EventLoop::Handler h;
  h.on_frames = [&](EventLoop::ConnId, std::vector<std::vector<std::uint8_t>>&& frames) {
    std::lock_guard lock(mu);
    for (auto& frame : frames) delivered.push_back(std::move(frame));
  };
  const EventLoop::ServiceId service = loop.add_service(std::move(h), {});
  loop.listen(service, bind_loopback_listener(0));
  loop.start();

  std::uint64_t errors = 0;
  for (const auto& [name, bad] : cases) {
    SCOPED_TRACE(name);
    {
      std::lock_guard lock(mu);
      delivered.clear();
    }
    const int fd = connect_blocking(loop.port(service));
    auto bytes = rpc::frame_payload(intact);
    bytes.insert(bytes.end(), bad.begin(), bad.end());
    send_all(fd, bytes);
    EXPECT_TRUE(peer_closes(fd)) << "the loop kept a corrupt stream open";
    EXPECT_EQ(loop.stats(service).decode_errors.load(), ++errors);
    {
      std::lock_guard lock(mu);
      EXPECT_EQ(delivered, std::vector<std::vector<std::uint8_t>>{intact});
    }
    ::close(fd);
  }
  EXPECT_EQ(loop.call([&] { return loop.connection_count(); }), 0u);
  loop.stop();
}

// --- backpressure ------------------------------------------------------------

TEST(EventLoopTest, ServingModeEvictsSlowClient) {
  // The server answers one tiny request with an unbounded stream of 8 KiB
  // frames; the client never reads. The output ring must hit its bound and
  // the connection must be evicted — a reader that stopped reading cannot
  // pin server memory.
  // Tiny socket buffers keep the kernel from absorbing the backlog: the
  // unread responses must land in the loop's output ring, not in TCP.
  EventLoop::Options serving;
  serving.sndbuf = 4096;
  serving.max_outbuf_bytes = 64 * 1024;
  serving.evict_on_overflow = true;

  std::atomic<bool> overflowed{false};
  EventLoop* loop_ptr = nullptr;
  EventLoop::Handler h;
  h.on_frames = [&](EventLoop::ConnId conn, std::vector<std::vector<std::uint8_t>>&&) {
    const std::vector<std::uint8_t> big(8 * 1024, 0xCC);
    for (int i = 0; i < 1000; ++i) {
      if (loop_ptr->send(conn, rpc::frame_payload(big)) != EventLoop::SendResult::kOk) {
        overflowed.store(true);
        return;
      }
    }
  };
  EventLoop loop;
  loop_ptr = &loop;
  const EventLoop::ServiceId service = loop.add_service(h, serving);
  loop.listen(service, bind_loopback_listener(0));
  loop.start();

  const int fd = connect_blocking(loop.port(service), 4096);
  send_all(fd, rpc::frame_payload({1}));

  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (loop.stats(service).evicted_slow.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(loop.stats(service).evicted_slow.load(), 1u);
  EXPECT_TRUE(overflowed.load());
  const auto gone = std::chrono::steady_clock::now() + 10s;
  const auto connections = [&] { return loop.call([&] { return loop.connection_count(); }); };
  while (connections() > 0 && std::chrono::steady_clock::now() < gone) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(connections(), 0u);
  ::close(fd);
  loop.stop();
}

TEST(EventLoopTest, TransportModeRejectsOverflowButKeepsConnection) {
  // Transport mode (consensus traffic): an overflowing frame is dropped —
  // retransmission is the protocol's job — but the connection survives.
  EventLoop::Options transport;
  transport.sndbuf = 4096;
  transport.max_outbuf_bytes = 16 * 1024;
  transport.evict_on_overflow = false;

  std::atomic<int> rejected{0};
  EventLoop* loop_ptr = nullptr;
  EventLoop::Handler h;
  h.on_frames = [&](EventLoop::ConnId conn, std::vector<std::vector<std::uint8_t>>&&) {
    const std::vector<std::uint8_t> big(8 * 1024, 0xDD);
    for (int i = 0; i < 100; ++i) {
      if (loop_ptr->send(conn, rpc::frame_payload(big)) == EventLoop::SendResult::kOverflow) {
        rejected.fetch_add(1);
      }
    }
  };
  EventLoop loop;
  loop_ptr = &loop;
  const EventLoop::ServiceId service = loop.add_service(h, transport);
  loop.listen(service, bind_loopback_listener(0));
  loop.start();

  const int fd = connect_blocking(loop.port(service), 4096);
  send_all(fd, rpc::frame_payload({1}));
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (rejected.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GT(rejected.load(), 0);
  EXPECT_EQ(loop.stats(service).evicted_slow.load(), 0u);
  EXPECT_EQ(loop.call([&] { return loop.connection_count(); }), 1u);
  ::close(fd);
  loop.stop();
}

// --- accept storm ------------------------------------------------------------

TEST(EventLoopTest, AcceptStormThousandConnections) {
  // 1000 concurrent client sockets plus server-side accepted fds needs
  // > 2000 descriptors; raise RLIMIT_NOFILE toward its hard cap and skip if
  // the environment cannot grant enough.
  constexpr std::size_t kConns = 1000;
  rlimit lim{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim), 0);
  const rlim_t needed = 2 * kConns + 256;
  if (lim.rlim_cur < needed) {
    rlimit raised = lim;
    raised.rlim_cur = std::min<rlim_t>(needed, lim.rlim_max);
    ::setrlimit(RLIMIT_NOFILE, &raised);
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim), 0);
  }
  if (lim.rlim_cur < needed) {
    GTEST_SKIP() << "RLIMIT_NOFILE " << lim.rlim_cur << " < " << needed;
  }

  EchoLoop echo;
  const std::uint16_t port = echo.start();

  std::vector<int> fds;
  fds.reserve(kConns);
  for (std::size_t i = 0; i < kConns; ++i) {
    const int fd = connect_blocking(port);
    ASSERT_GE(fd, 0) << "connection " << i;
    fds.push_back(fd);
  }
  // Every connection sends one frame; every frame must come back.
  for (std::size_t i = 0; i < kConns; ++i) {
    send_all(fds[i], rpc::frame_payload({static_cast<std::uint8_t>(i & 0xFF)}));
  }
  std::atomic<std::size_t> echoed{0};
  std::vector<std::thread> readers;
  const std::size_t stride = 100;
  for (std::size_t lo = 0; lo < kConns; lo += stride) {
    readers.emplace_back([&, lo] {
      for (std::size_t i = lo; i < std::min(lo + stride, kConns); ++i) {
        const auto got = read_frames(fds[i], 1);
        if (got.size() == 1 && got[0][0] == static_cast<std::uint8_t>(i & 0xFF)) {
          echoed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(echoed.load(), kConns);
  EXPECT_GE(echo.stats().accepted.load(), kConns);
  EXPECT_EQ(echo.loop.call([&] { return echo.loop.connection_count(); }), kConns);
  for (int fd : fds) ::close(fd);
  echo.loop.stop();
}

// --- post / call: the one way onto the loop ---------------------------------

TEST(EventLoopPostTest, TasksFromFourThreadsRunOnceInFifoOrderPerThread) {
  constexpr int kThreads = 4;
  constexpr int kTasks = 2000;
  EventLoop loop;
  loop.start();
  std::vector<std::vector<int>> seen(kThreads);  // touched on the loop thread only
  std::atomic<int> off_loop{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&, t] {
      for (int i = 0; i < kTasks; ++i) {
        loop.post([&, t, i] {
          if (!loop.on_loop_thread()) off_loop.fetch_add(1);
          seen[static_cast<std::size_t>(t)].push_back(i);
        });
      }
    });
  }
  for (auto& poster : posters) poster.join();
  loop.call([] {});  // FIFO: every task posted before this one has run
  loop.stop();
  EXPECT_EQ(off_loop.load(), 0);
  std::vector<int> expected(kTasks);
  std::iota(expected.begin(), expected.end(), 0);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[static_cast<std::size_t>(t)], expected) << t;
}

TEST(EventLoopPostTest, CallReturnsItsValueFromTheLoopThread) {
  EventLoop loop;
  loop.start();
  EXPECT_EQ(loop.call([] { return 42; }), 42);
  EXPECT_TRUE(loop.call([&] { return loop.on_loop_thread(); }));
  EXPECT_FALSE(loop.on_loop_thread());
  EXPECT_EQ(loop.call([&] { return loop.connection_count(); }), 0u);
  // An exception thrown on the loop thread reaches the caller, and the loop
  // keeps serving.
  EXPECT_THROW(loop.call([]() -> int { throw std::runtime_error("task failed"); }),
               std::runtime_error);
  EXPECT_EQ(loop.call([] { return 7; }), 7);
  loop.stop();
}

TEST(EventLoopPostTest, CallRacingStopNeitherHangsNorIsLost) {
  constexpr int kThreads = 4;
  constexpr int kCalls = 3000;
  EventLoop loop;
  loop.start();
  std::atomic<int> ran{0};
  std::atomic<int> wrong{0};
  std::atomic<int> started{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&] {
      started.fetch_add(1);
      for (int i = 0; i < kCalls; ++i) {
        const int got = loop.call([&ran, i] {
          ran.fetch_add(1);
          return i;
        });
        if (got != i) wrong.fetch_add(1);
      }
    });
  }
  while (started.load() < kThreads) std::this_thread::yield();
  std::this_thread::sleep_for(2ms);
  loop.stop();  // lands while the callers are mid-stream
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ran.load(), kThreads * kCalls);
}

TEST(EventLoopPostTest, CallAndPostRunInlineWhenTheLoopIsNotRunning) {
  EventLoop loop;
  const auto self = std::this_thread::get_id();
  const auto runs_on = [&] { return loop.call([] { return std::this_thread::get_id(); }); };
  EXPECT_EQ(runs_on(), self);  // before start()
  loop.start();
  EXPECT_NE(runs_on(), self);
  loop.stop();
  EXPECT_EQ(runs_on(), self);  // after stop()
  bool posted_ran = false;
  loop.post([&] { posted_ran = true; });
  EXPECT_TRUE(posted_ran);
}

TEST(EventLoopContractTest, OffLoopSendThrowsWhileRunningAndWorksBeforeStart) {
  const BoundListener listener = bind_loopback_listener(0);
  EventLoop loop;
  const EventLoop::ServiceId service = loop.add_service({}, {});
  // Before start() the owning thread sets the loop up directly.
  const EventLoop::ConnId conn = loop.connect(service, listener.port);
  ASSERT_NE(conn, 0u);
  const std::vector<std::uint8_t> early = {1, 2, 3};
  EXPECT_EQ(loop.send(conn, rpc::frame_payload(early)), EventLoop::SendResult::kOk);
  loop.start();
  EXPECT_THROW(loop.send(conn, rpc::frame_payload({4})), std::logic_error);
  EXPECT_THROW(loop.connect(service, listener.port), std::logic_error);
  EXPECT_THROW(loop.close(conn), std::logic_error);
  EXPECT_THROW(loop.flush(), std::logic_error);
  EXPECT_THROW(loop.outbuf_bytes(conn), std::logic_error);
  EXPECT_THROW(loop.connection_count(), std::logic_error);
  // The frame queued before start() goes out once the connect completes.
  const int peer = accept_within(listener.fd);
  ASSERT_GE(peer, 0);
  EXPECT_EQ(read_frames(peer, 1), std::vector<std::vector<std::uint8_t>>{early});
  ::close(peer);
  ::close(listener.fd);
  loop.stop();
}

// --- EINTR seams -------------------------------------------------------------

void noop_signal_handler(int) {}

/// Installs a no-op SIGUSR1 handler (without SA_RESTART, so syscalls really
/// can return EINTR) and restores the previous disposition on destruction.
struct SigUsr1Scope {
  struct sigaction old {};
  SigUsr1Scope() {
    struct sigaction sa {};
    sa.sa_handler = noop_signal_handler;
    ::sigaction(SIGUSR1, &sa, &old);
  }
  ~SigUsr1Scope() { ::sigaction(SIGUSR1, &old, nullptr); }
};

struct HookScope {
  ~HookScope() { testhooks::reset(); }
};

std::atomic<int> g_loop_recv_calls{0};
std::atomic<int> g_loop_send_calls{0};
std::atomic<int> g_loop_accept_budget{0};

ssize_t eintr_recv(int fd, void* buf, std::size_t len, int flags) {
  if (g_loop_recv_calls.fetch_add(1) % 3 == 1) {
    ::raise(SIGUSR1);
    errno = EINTR;
    return -1;
  }
  return ::recv(fd, buf, len, flags);
}

ssize_t eintr_short_send(int fd, const void* buf, std::size_t len, int flags) {
  if (g_loop_send_calls.fetch_add(1) % 2 == 1) {
    ::raise(SIGUSR1);
    errno = EINTR;
    return -1;
  }
  // Short write: any prefix is legal; 97 never divides the frame size, so
  // frames straddle send() boundaries.
  return ::send(fd, buf, std::min<std::size_t>(len, 97), flags);
}

int eintr_accept(int fd, sockaddr* addr, socklen_t* addrlen) {
  if (g_loop_accept_budget.fetch_sub(1) > 0) {
    errno = EINTR;
    return -1;
  }
  return ::accept(fd, addr, addrlen);
}

TEST(EventLoopRobustnessTest, SurvivesEintrOnRecvSendAndAccept) {
  SigUsr1Scope sig;
  HookScope hooks;
  g_loop_recv_calls.store(0);
  g_loop_send_calls.store(0);
  g_loop_accept_budget.store(2);
  testhooks::recv_fn = &eintr_recv;
  testhooks::send_fn = &eintr_short_send;
  testhooks::accept_fn = &eintr_accept;

  EchoLoop echo;
  const std::uint16_t port = echo.start();
  const int fd = connect_blocking(port);

  constexpr int kCount = 50;
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < kCount; ++i) {
    std::vector<std::uint8_t> payload(512 + static_cast<std::size_t>(i),
                                      static_cast<std::uint8_t>(i));
    send_all(fd, rpc::frame_payload(payload));
    sent.push_back(std::move(payload));
  }
  const auto got = read_frames(fd, kCount);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount))
      << "frames lost under EINTR-interrupted recv/send/accept";
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], sent[static_cast<std::size_t>(i)]) << i;
  EXPECT_GT(g_loop_recv_calls.load(), 0);
  EXPECT_GT(g_loop_send_calls.load(), 0);
  ::close(fd);
  echo.loop.stop();
}

std::atomic<int> g_loop_zero_budget{0};

ssize_t zero_once_send(int fd, const void* buf, std::size_t len, int flags) {
  if (g_loop_zero_budget.fetch_sub(1) > 0) {
    errno = ECONNRESET;  // stale: errno means nothing after a 0 return
    return 0;
  }
  return ::send(fd, buf, len, flags);
}

TEST(EventLoopRobustnessTest, ZeroByteSendIsRetriedWithoutAWritabilityEdge) {
  // A 0-byte send() leaves the socket writable, so no EPOLLOUT edge follows
  // it. Here the connection's writability edges are spent and the loop is
  // idle when a frame is queued and its flush returns 0: only a retry the
  // loop schedules itself can deliver it.
  HookScope hooks;
  g_loop_zero_budget.store(0);
  testhooks::send_fn = &zero_once_send;
  const BoundListener listener = bind_loopback_listener(0);
  EventLoop loop;
  const EventLoop::ServiceId service = loop.add_service({}, {});
  loop.start();
  const EventLoop::ConnId conn = loop.call([&] { return loop.connect(service, listener.port); });
  ASSERT_NE(conn, 0u);
  const int peer = accept_within(listener.fd);
  ASSERT_GE(peer, 0);

  const std::vector<std::uint8_t> first = {1}, second = {2, 2};
  loop.post([&] { loop.send(conn, rpc::frame_payload(first)); });
  ASSERT_EQ(read_frames(peer, 1), std::vector<std::vector<std::uint8_t>>{first});
  g_loop_zero_budget.store(1);
  loop.post([&] { loop.send(conn, rpc::frame_payload(second)); });
  EXPECT_EQ(read_frames(peer, 1), std::vector<std::vector<std::uint8_t>>{second})
      << "frame queued behind a 0-byte send() was never retried";
  EXPECT_LE(g_loop_zero_budget.load(), 0);
  ::close(peer);
  ::close(listener.fd);
  loop.stop();
}

}  // namespace
}  // namespace escape::net
