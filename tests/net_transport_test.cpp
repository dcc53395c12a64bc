// Real-socket tests: TCP transport framing/delivery and a 3-node real-time
// cluster on 127.0.0.1. Every listener binds port 0 (kernel-assigned) and is
// handed to its transport as an open fd, so parallel ctest workers can never
// collide on a port and no port can be stolen between discovery and use.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <sys/stat.h>

#include <unistd.h>

#include "core/escape_policy.h"
#include "net/event_loop.h"
#include "net/real_cluster.h"
#include "net/tcp_transport.h"
#include "rpc/wire.h"
#include "storage/wal.h"

namespace escape::net {
namespace {

using namespace std::chrono_literals;

/// Kernel-assigned ports for a set of members: binds one port-0 listener per
/// id and keeps the open fds for the transports to adopt (TcpTransport's
/// listener / RealNode::Options listen_fd).
struct Port0Cluster {
  std::map<ServerId, std::uint16_t> endpoints;
  std::map<ServerId, int> fds;

  explicit Port0Cluster(std::initializer_list<ServerId> ids) {
    for (ServerId id : ids) {
      const BoundListener listener = bind_loopback_listener(0);
      endpoints[id] = listener.port;
      fds[id] = listener.fd;
    }
  }

  BoundListener listener(ServerId id) const { return {fds.at(id), endpoints.at(id)}; }
};

/// A transport on its own event loop, the way RealNode hosts one. The test
/// starts and stops the loop; destruction stops it before the transport
/// goes.
struct LoopTransport {
  EventLoop loop;
  TcpTransport transport;

  LoopTransport(ServerId self, std::map<ServerId, std::uint16_t> endpoints, BoundListener listener,
                TcpTransport::DeliverFn deliver, EventLoop::Options options = {})
      : transport(loop, self, std::move(endpoints), std::move(deliver), listener, options) {}
  LoopTransport(ServerId self, const Port0Cluster& ports, TcpTransport::DeliverFn deliver,
                EventLoop::Options options = {})
      : LoopTransport(self, ports.endpoints, ports.listener(self), std::move(deliver), options) {}
  ~LoopTransport() { loop.stop(); }
};

/// A loopback port that is currently free: bound, discovered, and released.
/// Connecting to it gets ECONNREFUSED (barring an improbable immediate
/// reuse), which is what the dead-peer tests need.
std::uint16_t dead_port() {
  const BoundListener listener = bind_loopback_listener(0);
  const std::uint16_t port = listener.port;
  ::close(listener.fd);
  return port;
}

rpc::Message probe_message(Term term) {
  rpc::RequestVote rv;
  rv.term = term;
  rv.candidate_id = 1;
  rv.last_log_index = 3;
  rv.last_log_term = 2;
  return rv;
}

/// Sends from the test thread the way any thread other than the loop's
/// must: posted onto the transport's loop (call waits until it ran, so a
/// test can check the transport's counters right after).
void send_from_test(LoopTransport& t, const rpc::Envelope& envelope) {
  t.loop.call([&] { t.transport.send(envelope); });
}

struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<rpc::Envelope> messages;

  /// A transport deliver callback appending each burst here.
  TcpTransport::DeliverFn sink() {
    return [this](std::vector<rpc::Envelope>&& burst) {
      {
        std::lock_guard lock(mu);
        for (auto& env : burst) messages.push_back(std::move(env));
      }
      cv.notify_all();
    };
  }

  bool wait_for_count(std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return messages.size() >= n; });
  }
};

TEST(TcpTransportTest, DeliversBetweenTwoEndpoints) {
  Port0Cluster ports({1, 2});
  Mailbox inbox1, inbox2;
  LoopTransport t1(1, ports, inbox1.sink());
  LoopTransport t2(2, ports, inbox2.sink());
  t1.loop.start();
  t2.loop.start();

  send_from_test(t1, {1, 2, probe_message(7)});
  ASSERT_TRUE(inbox2.wait_for_count(1, 5000ms));
  EXPECT_EQ(inbox2.messages[0].from, 1u);
  EXPECT_EQ(inbox2.messages[0].to, 2u);
  EXPECT_EQ(inbox2.messages[0].message, probe_message(7));

  // Reply direction reuses / establishes the reverse connection.
  send_from_test(t2, {2, 1, probe_message(8)});
  ASSERT_TRUE(inbox1.wait_for_count(1, 5000ms));
  EXPECT_EQ(inbox1.messages[0].message, probe_message(8));

  t1.loop.stop();
  t2.loop.stop();
}

TEST(TcpTransportTest, ManyMessagesArriveInOrder) {
  Port0Cluster ports({1, 2});
  Mailbox inbox;
  LoopTransport t1(1, ports, nullptr);
  LoopTransport t2(2, ports, inbox.sink());
  t1.loop.start();
  t2.loop.start();

  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    send_from_test(t1, {1, 2, probe_message(i)});
  }
  ASSERT_TRUE(inbox.wait_for_count(kCount, 10000ms));
  for (int i = 0; i < kCount; ++i) {
    const auto& rv = std::get<rpc::RequestVote>(inbox.messages[static_cast<std::size_t>(i)].message);
    EXPECT_EQ(rv.term, i);  // single TCP stream preserves order
  }
  t1.loop.stop();
  t2.loop.stop();
}

TEST(TcpTransportTest, SendToUnknownPeerDrops) {
  Port0Cluster ports({1});
  LoopTransport t1(1, ports, nullptr);
  t1.loop.start();
  send_from_test(t1, {1, 99, probe_message(1)});
  EXPECT_EQ(t1.loop.call([&] { return t1.transport.dropped(); }), 1u);
  t1.loop.stop();
}

TEST(TcpTransportTest, SendToDeadPeerDoesNotBlock) {
  Port0Cluster ports({1});
  // Peer 2's port has no listener.
  auto endpoints = ports.endpoints;
  endpoints[2] = dead_port();
  LoopTransport t1(1, endpoints, ports.listener(1), nullptr);
  t1.loop.start();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) send_from_test(t1, {1, 2, probe_message(i)});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 1s);  // connection failure must not stall the sender
  t1.loop.stop();
}

TEST(TcpTransportTest, RequiresSelfEndpoint) {
  EventLoop loop;
  EXPECT_THROW(TcpTransport(loop, 1, {{2, 1234}}, nullptr, BoundListener{}),
               std::invalid_argument);
}

TEST(TcpTransportTest, StopIsIdempotent) {
  Port0Cluster ports({1});
  LoopTransport t1(1, ports, nullptr);
  t1.loop.start();
  t1.loop.stop();
  t1.loop.stop();  // second stop is a no-op
}

// --- robustness: EINTR and short writes --------------------------------------
// The syscall seams (net/event_loop.h testhooks) stand in for the kernel:
// they return the exact (-1, EINTR) / short-count / (0, stale errno) shapes
// the sockets API is allowed to produce, while a real no-op SIGUSR1 raised
// mid-transfer makes the interrupts genuine signal deliveries rather than
// pure stubs. Each test fails on the pre-fix transport, which treated EINTR
// as fatal and consulted errno on a 0-byte send.

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

std::atomic<int> g_recv_calls{0};
std::atomic<int> g_send_calls{0};
std::atomic<int> g_send_zero_budget{0};
std::atomic<int> g_accept_eintr_budget{0};

ssize_t eintr_recv(int fd, void* buf, std::size_t len, int flags) {
  if (g_recv_calls.fetch_add(1) % 3 == 1) {
    ::raise(SIGUSR1);
    errno = EINTR;
    return -1;
  }
  return ::recv(fd, buf, len, flags);
}

ssize_t eintr_short_send(int fd, const void* buf, std::size_t len, int flags) {
  if (g_send_calls.fetch_add(1) % 2 == 1) {
    ::raise(SIGUSR1);
    errno = EINTR;
    return -1;
  }
  // A short write: the kernel may accept any prefix. 97 is deliberately not
  // a divisor of the frame size, so frames straddle send() boundaries.
  return ::send(fd, buf, std::min<std::size_t>(len, 97), flags);
}

ssize_t zero_return_send(int fd, const void* buf, std::size_t len, int flags) {
  if (g_send_zero_budget.fetch_sub(1) > 0) {
    // A 0 return with errno left over from an unrelated failure; errno is
    // only meaningful for negative returns, so the transport must not act
    // on this value.
    errno = ECONNRESET;
    return 0;
  }
  return ::send(fd, buf, len, flags);
}

int eintr_accept(int fd, sockaddr* addr, socklen_t* addrlen) {
  if (g_accept_eintr_budget.fetch_sub(1) > 0) {
    errno = EINTR;
    return -1;
  }
  return ::accept(fd, addr, addrlen);
}

TEST(TcpTransportRobustnessTest, SurvivesEintrDuringRecv) {
  SigUsr1Scope sig;
  HookScope hooks;
  g_recv_calls.store(0);
  testhooks::recv_fn = &eintr_recv;

  Port0Cluster ports({1, 2});
  Mailbox inbox;
  LoopTransport t1(1, ports, nullptr);
  LoopTransport t2(2, ports, inbox.sink());
  t1.loop.start();
  t2.loop.start();

  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) send_from_test(t1, {1, 2, probe_message(i)});
  ASSERT_TRUE(inbox.wait_for_count(kCount, 10000ms))
      << "only " << inbox.messages.size() << " of " << kCount
      << " messages survived EINTR-interrupted recv";
  for (int i = 0; i < kCount; ++i) {
    const auto& rv =
        std::get<rpc::RequestVote>(inbox.messages[static_cast<std::size_t>(i)].message);
    EXPECT_EQ(rv.term, i);
  }
  EXPECT_GT(g_recv_calls.load(), 0);
  t1.loop.stop();
  t2.loop.stop();
}

TEST(TcpTransportRobustnessTest, SurvivesEintrAndShortWritesDuringSend) {
  SigUsr1Scope sig;
  HookScope hooks;
  g_send_calls.store(0);
  testhooks::send_fn = &eintr_short_send;

  Port0Cluster ports({1, 2});
  Mailbox inbox;
  LoopTransport t1(1, ports, nullptr);
  LoopTransport t2(2, ports, inbox.sink());
  t1.loop.start();
  t2.loop.start();

  constexpr int kCount = 300;
  for (int i = 0; i < kCount; ++i) send_from_test(t1, {1, 2, probe_message(i)});
  ASSERT_TRUE(inbox.wait_for_count(kCount, 15000ms))
      << "only " << inbox.messages.size() << " of " << kCount
      << " messages survived interrupt + short-write interleavings";
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(inbox.messages[static_cast<std::size_t>(i)].message, probe_message(i));
  }
  t1.loop.stop();
  t2.loop.stop();
}

TEST(TcpTransportRobustnessTest, ZeroByteSendDoesNotActOnStaleErrno) {
  HookScope hooks;
  g_send_zero_budget.store(1);
  testhooks::send_fn = &zero_return_send;

  Port0Cluster ports({1, 2});
  Mailbox inbox;
  LoopTransport t1(1, ports, nullptr);
  LoopTransport t2(2, ports, inbox.sink());
  t1.loop.start();
  t2.loop.start();

  // Pre-fix, the 0 return fell through to the stale-ECONNRESET branch and
  // closed the connection with this frame still queued — losing it.
  send_from_test(t1, {1, 2, probe_message(1)});
  ASSERT_TRUE(inbox.wait_for_count(1, 5000ms))
      << "frame queued behind a 0-byte send() was lost";
  EXPECT_EQ(inbox.messages[0].message, probe_message(1));
  t1.loop.stop();
  t2.loop.stop();
}

TEST(TcpTransportRobustnessTest, SurvivesEintrDuringAccept) {
  HookScope hooks;
  g_accept_eintr_budget.store(2);
  testhooks::accept_fn = &eintr_accept;

  Port0Cluster ports({1, 2});
  Mailbox inbox;
  LoopTransport t1(1, ports, nullptr);
  LoopTransport t2(2, ports, inbox.sink());
  t1.loop.start();
  t2.loop.start();

  send_from_test(t1, {1, 2, probe_message(3)});
  ASSERT_TRUE(inbox.wait_for_count(1, 5000ms));
  EXPECT_EQ(inbox.messages[0].message, probe_message(3));
  t1.loop.stop();
  t2.loop.stop();
}

TEST(TcpTransportRobustnessTest, FramesSurviveTinySendBuffer) {
  // A 1-entry AppendEntries with a 64 KiB command dwarfs SO_SNDBUF, so every
  // frame crosses many partial send() calls; CRC framing must reassemble
  // each one intact.
  EventLoop::Options tiny;
  tiny.sndbuf = 4096;
  tiny.rcvbuf = 4096;

  Port0Cluster ports({1, 2});
  Mailbox inbox;
  LoopTransport t1(1, ports, nullptr, tiny);
  LoopTransport t2(2, ports, inbox.sink(), tiny);
  t1.loop.start();
  t2.loop.start();

  auto bulk_message = [](int i) -> rpc::Message {
    rpc::AppendEntries ae;
    ae.term = i;
    ae.leader_id = 1;
    rpc::LogEntry entry;
    entry.term = i;
    entry.index = i + 1;
    entry.command.assign(64 * 1024, static_cast<std::uint8_t>(i));
    ae.entries.push_back(std::move(entry));
    return ae;
  };

  constexpr int kCount = 20;
  for (int i = 0; i < kCount; ++i) send_from_test(t1, {1, 2, bulk_message(i)});
  ASSERT_TRUE(inbox.wait_for_count(kCount, 20000ms))
      << "only " << inbox.messages.size() << " of " << kCount
      << " bulk frames crossed the tiny send buffer";
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(inbox.messages[static_cast<std::size_t>(i)].message, bulk_message(i));
  }
  t1.loop.stop();
  t2.loop.stop();
}

// --- real-time cluster -------------------------------------------------------

PolicyFactory fast_escape() {
  core::EscapeOptions opts;
  opts.base_time = from_ms(300);
  opts.gap = from_ms(150);
  return [opts](ServerId id, std::size_t n) {
    return std::make_unique<core::EscapePolicy>(id, n, opts);
  };
}

ServerId wait_for_leader(std::vector<std::unique_ptr<RealNode>>& nodes,
                         std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    for (const auto& node : nodes) {
      if (node && node->role() == Role::kLeader) return node->id();
    }
    std::this_thread::sleep_for(10ms);
  }
  return kNoServer;
}

TEST(RealClusterTest, ElectsReplicatesAndFailsOver) {
  Port0Cluster ports({1, 2, 3});

  std::vector<std::unique_ptr<RealNode>> nodes;
  for (ServerId id = 1; id <= 3; ++id) {
    RealNode::Options options;
    options.node.heartbeat_interval = from_ms(60);
    options.listen_fd = ports.fds[id];
    nodes.push_back(std::make_unique<RealNode>(id, ports.endpoints, fast_escape(), options));
  }
  std::atomic<int> applied{0};
  for (auto& node : nodes) {
    node->set_apply_hook([&](const rpc::LogEntry&) { applied.fetch_add(1); });
    node->start();
  }

  const ServerId leader = wait_for_leader(nodes, 5000ms);
  ASSERT_NE(leader, kNoServer);

  // Non-leaders reject submissions and point at the leader.
  for (const auto& node : nodes) {
    if (node->id() != leader) {
      EXPECT_FALSE(node->submit({1}).has_value());
    }
  }

  const auto index = nodes[leader - 1]->submit({42});
  ASSERT_TRUE(index.has_value());
  const auto commit_deadline = std::chrono::steady_clock::now() + 5000ms;
  while (applied.load() < 3 && std::chrono::steady_clock::now() < commit_deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(applied.load(), 3);  // committed and applied on every replica

  // Kill the leader; survivors re-elect.
  const Term old_term = nodes[leader - 1]->term();
  nodes[leader - 1]->stop();
  nodes[leader - 1].reset();
  const ServerId next = wait_for_leader(nodes, 5000ms);
  ASSERT_NE(next, kNoServer);
  EXPECT_NE(next, leader);
  EXPECT_GT(nodes[next - 1]->term(), old_term);

  for (auto& node : nodes) {
    if (node) node->stop();
  }
}

TEST(RealClusterTest, LinearizableReadBarrierOverTcp) {
  Port0Cluster ports({1, 2, 3});

  std::vector<std::unique_ptr<RealNode>> nodes;
  for (ServerId id = 1; id <= 3; ++id) {
    RealNode::Options options;
    options.node.heartbeat_interval = from_ms(60);
    options.listen_fd = ports.fds[id];
    nodes.push_back(std::make_unique<RealNode>(id, ports.endpoints, fast_escape(), options));
  }
  std::atomic<int> granted{0};
  std::atomic<int> lease_granted{0};
  std::atomic<LogIndex> read_index{-1};
  for (auto& node : nodes) {
    node->set_read_hook([&](const raft::ReadGrant& grant) {
      if (!grant.ok) return;
      read_index.store(grant.read_index);
      if (grant.via_lease) lease_granted.fetch_add(1);
      granted.fetch_add(1);
    });
    node->start();
  }
  const ServerId leader = wait_for_leader(nodes, 5000ms);
  ASSERT_NE(leader, kNoServer);

  // Followers refuse reads, as they refuse writes.
  for (const auto& node : nodes) {
    if (node->id() != leader) {
      EXPECT_FALSE(node->submit_read().has_value());
    }
  }

  const auto index = nodes[leader - 1]->submit({7});
  ASSERT_TRUE(index.has_value());
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  while (nodes[leader - 1]->commit_index() < *index &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_GE(nodes[leader - 1]->commit_index(), *index);

  // A handful of read barriers: every grant must cover the committed write.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(nodes[leader - 1]->submit_read().has_value());
    const auto read_deadline = std::chrono::steady_clock::now() + 5000ms;
    while (granted.load() < i + 1 && std::chrono::steady_clock::now() < read_deadline) {
      std::this_thread::sleep_for(5ms);
    }
    ASSERT_EQ(granted.load(), i + 1) << "read " << i << " never granted";
    EXPECT_GE(read_index.load(), *index);
    std::this_thread::sleep_for(20ms);  // let heartbeat rounds extend the lease
  }
  const auto counters = nodes[leader - 1]->counters();
  EXPECT_EQ(counters.lease_reads + counters.read_index_reads, 5u);

  for (auto& node : nodes) node->stop();
}

TEST(RealClusterTest, DurableStateSurvivesRestart) {
  Port0Cluster ports({1});
  const std::string dir = "/tmp/escape_real_test_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);

  RealNode::Options options;
  options.node.heartbeat_interval = from_ms(60);
  options.data_dir = dir;

  Term term_before = 0;
  {
    auto first_options = options;
    first_options.listen_fd = ports.fds[1];
    RealNode node(1, ports.endpoints, fast_escape(), first_options);
    node.start();
    // Single-node cluster: leads immediately after its first timeout.
    const auto deadline = std::chrono::steady_clock::now() + 5000ms;
    while (node.role() != Role::kLeader && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(10ms);
    }
    ASSERT_EQ(node.role(), Role::kLeader);
    ASSERT_TRUE(node.submit({9}).has_value());
    const auto commit_deadline = std::chrono::steady_clock::now() + 2000ms;
    while (node.commit_index() < 1 && std::chrono::steady_clock::now() < commit_deadline) {
      std::this_thread::sleep_for(10ms);
    }
    term_before = node.term();
    node.stop();
  }

  // The restart re-binds the (now released) port itself: SO_REUSEADDR makes
  // the same endpoint available again immediately after stop().
  RealNode restarted(1, ports.endpoints, fast_escape(), options);
  restarted.start();
  // Persisted term must be restored (it may then advance when it re-elects).
  EXPECT_GE(restarted.term(), term_before);
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  while (restarted.commit_index() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(restarted.commit_index(), 1);  // WAL replayed the entry
  restarted.stop();
  std::filesystem::remove_all(dir);
}

TEST(RealClusterTest, StateReadsAfterStopReturnTheLastValues) {
  // The path a benchmark takes when it kills a replica: stop(), then read
  // its counters. With the loop gone the reads run inline on the caller.
  Port0Cluster ports({1});
  RealNode::Options options;
  options.node.heartbeat_interval = from_ms(60);
  options.listen_fd = ports.fds[1];
  RealNode node(1, ports.endpoints, fast_escape(), options);
  std::atomic<LogIndex> last_applied{0};
  node.set_apply_hook([&](const rpc::LogEntry& entry) { last_applied.store(entry.index); });
  node.start();
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  while (node.role() != Role::kLeader && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(node.role(), Role::kLeader);
  std::optional<LogIndex> last;
  for (std::uint8_t i = 0; i < 3; ++i) last = node.submit({i});
  ASSERT_TRUE(last.has_value());
  while (node.commit_index() < *last && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  const raft::NodeCounters before = node.counters();
  node.stop();

  const raft::NodeCounters after = node.counters();
  EXPECT_GE(node.commit_index(), *last);
  EXPECT_EQ(node.commit_index(), last_applied.load());  // the drain applied all of it
  EXPECT_EQ(node.role(), Role::kLeader);
  EXPECT_GE(after.entries_committed, before.entries_committed);
  EXPECT_GE(after.elections_won, 1u);
  EXPECT_EQ(node.counters().entries_committed, after.entries_committed);  // frozen
}

// --- send before the next fsync ----------------------------------------------
// Each Ready batch's messages must reach the socket write() before the next
// batch's WAL sync on the same loop: followers then persist batch N while the
// leader syncs batch N+1, instead of every AppendEntries waiting out one more
// fsync. The send seam counts, per loop thread, the complete frames handed
// to send(); a WAL whose sync() compares that count with the frames the
// loop has queued so far catches a batch whose messages still sit in an
// output ring. Compaction puts a second synced batch into the drain that
// applied (and acked) the entries, so the rule is exercised inside one
// drain, not only across loop iterations.

thread_local std::map<int, rpc::FrameReader> t_send_streams;
thread_local std::uint64_t t_frames_written = 0;

ssize_t frame_counting_send(int fd, const void* buf, std::size_t len, int flags) {
  const ssize_t n = ::send(fd, buf, len, flags);
  if (n > 0) {
    auto& stream = t_send_streams[fd];
    stream.feed(static_cast<const std::uint8_t*>(buf), static_cast<std::size_t>(n));
    while (stream.next()) ++t_frames_written;
  }
  return n;
}

/// MemoryWal whose sync() (on the loop thread) checks that every frame the
/// node's loop queued so far was already written.
class SendCheckingWal final : public storage::Wal {
 public:
  explicit SendCheckingWal(const std::atomic<bool>& armed) : armed_(armed) {}

  void append(const rpc::LogEntry& entry) override { wal_.append(entry); }
  void append_batch(const std::vector<rpc::LogEntry>& entries) override {
    wal_.append_batch(entries);
  }
  void truncate_from(LogIndex from) override { wal_.truncate_from(from); }
  void compact_to(LogIndex upto) override { wal_.compact_to(upto); }
  std::vector<rpc::LogEntry> recovered() const override { return wal_.recovered(); }
  void sync() override {
    if (!armed_.load()) return;
    syncs.fetch_add(1);
    if (t_frames_written != raft->frames_out.load()) unsent_at_sync.fetch_add(1);
  }

  const EventLoopStats* raft = nullptr;  ///< the node's raft service; set before start()
  std::atomic<int> syncs{0};
  std::atomic<int> unsent_at_sync{0};

 private:
  const std::atomic<bool>& armed_;
  storage::MemoryWal wal_;
};

TEST(RealClusterTest, EachBatchReachesTheSocketsBeforeTheNextSync) {
  HookScope hooks;
  testhooks::send_fn = &frame_counting_send;
  Port0Cluster ports({1, 2, 3});
  std::atomic<bool> armed{false};

  std::vector<SendCheckingWal*> wals;
  std::vector<std::unique_ptr<RealNode>> nodes;
  for (ServerId id = 1; id <= 3; ++id) {
    RealNode::Options options;
    options.node.heartbeat_interval = from_ms(60);
    options.listen_fd = ports.fds[id];
    Stores stores = open_stores(id, "");
    auto wal = std::make_unique<SendCheckingWal>(armed);
    wals.push_back(wal.get());
    stores.wal = std::move(wal);
    nodes.push_back(
        std::make_unique<RealNode>(id, ports.endpoints, fast_escape(), options, std::move(stores)));
    wals.back()->raft = &nodes.back()->raft_stats();
    nodes.back()->set_snapshot_hook([] { return std::vector<std::uint8_t>(16, 0x5A); });
  }
  for (auto& node : nodes) node->start();
  const ServerId leader = wait_for_leader(nodes, 5000ms);
  ASSERT_NE(leader, kNoServer);
  RealNode& l = *nodes[leader - 1];

  const auto wait_commit = [&](LogIndex index) {
    const auto deadline = std::chrono::steady_clock::now() + 10000ms;
    while (std::chrono::steady_clock::now() < deadline) {
      if (std::all_of(nodes.begin(), nodes.end(),
                      [&](const auto& node) { return node->commit_index() >= index; })) {
        return true;
      }
      std::this_thread::sleep_for(5ms);
    }
    return false;
  };
  // Warm-up: once every replica learned a commit, every link that steady
  // replication uses is connected (frames queued on a connection still
  // connecting legitimately wait for its first writability edge).
  const auto first = l.submit({1});
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(wait_commit(*first));
  armed.store(true);

  // ~200 KiB through a 64 KiB compaction threshold: several compactions per
  // replica.
  std::optional<LogIndex> last;
  for (int i = 0; i < 200; ++i) {
    last = l.submit(std::vector<std::uint8_t>(1024, static_cast<std::uint8_t>(i)));
    ASSERT_TRUE(last.has_value());
    if (i % 10 == 9) std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(wait_commit(*last));
  armed.store(false);
  for (auto& node : nodes) node->stop();

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_GE(nodes[i]->counters().snapshots_taken, 2u) << server_name(nodes[i]->id());
    EXPECT_GT(wals[i]->syncs.load(), 2) << server_name(nodes[i]->id());
    EXPECT_EQ(wals[i]->unsent_at_sync.load(), 0)
        << server_name(nodes[i]->id()) << " synced with frames still queued";
  }
}

}  // namespace
}  // namespace escape::net
