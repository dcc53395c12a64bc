// Serving-layer tests: a real 3-node KvServer cluster on port-0 listeners,
// driven both through KvClient (leader tracking, retries) and through raw
// sockets speaking serve::kv_wire (redirects, session dedup), plus KvClient
// alone against a listener that never answers (deadlines, stop()) and
// against scripted servers (following leader hints).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/escape_policy.h"
#include "rpc/wire.h"
#include "serve/kv_client.h"
#include "serve/kv_server.h"

namespace escape::serve {
namespace {

using namespace std::chrono_literals;

net::PolicyFactory fast_escape() {
  core::EscapeOptions opts;
  opts.base_time = from_ms(300);
  opts.gap = from_ms(150);
  return [opts](ServerId id, std::size_t n) {
    return std::make_unique<core::EscapePolicy>(id, n, opts);
  };
}

/// Three KvServers, every listener on a kernel-assigned port: raft listeners
/// are all bound before any server is constructed, so no port can be stolen
/// between discovery and use.
struct ServingCluster {
  std::vector<std::unique_ptr<KvServer>> servers;
  std::map<ServerId, std::uint16_t> client_ports;

  explicit ServingCluster(std::uint64_t seed = 42) {
    std::map<ServerId, std::uint16_t> endpoints;
    std::map<ServerId, int> raft_fds;
    for (ServerId id = 1; id <= 3; ++id) {
      const auto listener = net::bind_loopback_listener(0);
      endpoints[id] = listener.port;
      raft_fds[id] = listener.fd;
    }
    for (ServerId id = 1; id <= 3; ++id) {
      KvServer::Options options;
      options.node.node.heartbeat_interval = from_ms(60);
      options.node.listen_fd = raft_fds[id];
      options.node.seed = seed + id;
      servers.push_back(std::make_unique<KvServer>(id, endpoints, fast_escape(), options));
    }
    for (auto& server : servers) server->start();
    for (auto& server : servers) client_ports[server->id()] = server->client_port();
  }

  ~ServingCluster() {
    for (auto& server : servers) {
      if (server) server->stop();
    }
  }

  ServerId wait_for_leader(std::chrono::milliseconds timeout = 5000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      for (const auto& server : servers) {
        if (server && server->node().role() == Role::kLeader) return server->id();
      }
      std::this_thread::sleep_for(10ms);
    }
    return kNoServer;
  }

  ServerId kill_leader() {
    for (auto& server : servers) {
      if (server && server->node().role() == Role::kLeader) {
        const ServerId victim = server->id();
        server->stop();
        server.reset();
        return victim;
      }
    }
    return kNoServer;
  }
};

/// Synchronous submit through KvClient.
std::pair<Status, kv::CommandResult> sync_op(KvClient& client, kv::Command command,
                                             std::chrono::milliseconds timeout = 5000ms) {
  auto promise = std::make_shared<std::promise<std::pair<Status, kv::CommandResult>>>();
  auto future = promise->get_future();
  client.submit(std::move(command), [promise](Status s, const kv::CommandResult& r) {
    promise->set_value({s, r});
  });
  if (future.wait_for(timeout) != std::future_status::ready) {
    return {Status::kTimeout, {}};
  }
  return future.get();
}

kv::Command put(const std::string& key, const std::string& value) {
  kv::Command c;
  c.op = kv::Op::kPut;
  c.key = key;
  c.value = value;
  return c;
}

kv::Command get(const std::string& key) {
  kv::Command c;
  c.op = kv::Op::kGet;
  c.key = key;
  return c;
}

// --- raw-socket client (no KvClient retry machinery in the way) --------------

int connect_blocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

/// Sends one Request and blocks for its Response (10 s cap).
std::optional<Response> roundtrip(int fd, const Request& request) {
  const auto frame = rpc::frame_payload(encode_request(request));
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    off += static_cast<std::size_t>(n);
  }
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  rpc::FrameReader reader;
  std::vector<std::uint8_t> buf(16 * 1024);
  while (true) {
    if (auto payload = reader.next()) return decode_response(*payload);
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    reader.feed(buf.data(), static_cast<std::size_t>(n));
  }
}

// --- tests -------------------------------------------------------------------

TEST(KvServerTest, PutGetRoundtripThroughRealCluster) {
  ServingCluster cluster;
  ASSERT_NE(cluster.wait_for_leader(), kNoServer);

  KvClient client(cluster.client_ports, 10'000);
  client.start();

  auto [put_status, put_result] = sync_op(client, put("alpha", "1"));
  EXPECT_EQ(put_status, Status::kOk);

  auto [get_status, get_result] = sync_op(client, get("alpha"));
  EXPECT_EQ(get_status, Status::kOk);
  EXPECT_TRUE(get_result.ok);
  EXPECT_EQ(get_result.value, "1");

  auto [miss_status, miss_result] = sync_op(client, get("absent"));
  EXPECT_EQ(miss_status, Status::kOk);
  EXPECT_FALSE(miss_result.ok);

  client.stop();
}

TEST(KvServerTest, FollowerAnswersNotLeaderWithHint) {
  ServingCluster cluster;
  const ServerId leader = cluster.wait_for_leader();
  ASSERT_NE(leader, kNoServer);

  ServerId follower = kNoServer;
  for (const auto& [id, port] : cluster.client_ports) {
    if (id != leader) {
      follower = id;
      break;
    }
  }
  ASSERT_NE(follower, kNoServer);

  Request request;
  request.request_id = 1;
  request.command = put("redirected", "x");
  request.command.client_id = 501;
  request.command.sequence = 1;

  // The hint converges once the follower has heard a heartbeat; retry briefly.
  const int fd = connect_blocking(cluster.client_ports[follower]);
  Response last;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto response = roundtrip(fd, request);
    ASSERT_TRUE(response.has_value()) << "follower closed the connection";
    last = *response;
    ASSERT_EQ(last.status, Status::kNotLeader);
    if (last.leader_hint == leader) break;
    std::this_thread::sleep_for(50ms);
    ++request.request_id;
  }
  EXPECT_EQ(last.status, Status::kNotLeader);
  EXPECT_EQ(last.leader_hint, leader);
  ::close(fd);
}

TEST(KvServerTest, SessionDedupMakesRetriesExactlyOnce) {
  ServingCluster cluster;
  const ServerId leader = cluster.wait_for_leader();
  ASSERT_NE(leader, kNoServer);

  const int fd = connect_blocking(cluster.client_ports[leader]);

  Request first;
  first.request_id = 1;
  first.command = put("dedup", "original");
  first.command.client_id = 700;
  first.command.sequence = 5;
  const auto r1 = roundtrip(fd, first);
  ASSERT_TRUE(r1.has_value());
  ASSERT_EQ(r1->status, Status::kOk);

  // The same (client_id, sequence) with a DIFFERENT value models a client
  // retry after a lost response: the command must not execute twice, so the
  // store keeps the original value and the cached result is replayed.
  Request retry = first;
  retry.request_id = 2;
  retry.command.value = "replayed-must-not-apply";
  const auto r2 = roundtrip(fd, retry);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->status, Status::kOk);

  Request check;
  check.request_id = 3;
  check.command = get("dedup");
  const auto r3 = roundtrip(fd, check);
  ASSERT_TRUE(r3.has_value());
  ASSERT_EQ(r3->status, Status::kOk);
  EXPECT_TRUE(r3->result.ok);
  EXPECT_EQ(r3->result.value, "original");
  ::close(fd);
}

TEST(KvServerTest, LeaderKillResolvesEveryPendingWrite) {
  ServingCluster cluster;
  ASSERT_NE(cluster.wait_for_leader(), kNoServer);

  KvClient::Options options;
  options.timeout = from_ms(4000);
  KvClient client(cluster.client_ports, 20'000, options);
  client.start();

  // A stream of writes with the leader dying mid-stream: every callback must
  // fire (no request may hang), and the stream must make progress again on
  // the new leader.
  constexpr int kWrites = 120;
  std::atomic<int> done{0};
  std::atomic<int> ok{0};
  for (int i = 0; i < kWrites; ++i) {
    client.submit(put("k" + std::to_string(i % 10), std::to_string(i)),
                  [&](Status s, const kv::CommandResult&) {
                    if (s == Status::kOk) ok.fetch_add(1);
                    done.fetch_add(1);
                  });
    if (i == 30) cluster.kill_leader();
    std::this_thread::sleep_for(2ms);
  }

  const auto deadline = std::chrono::steady_clock::now() + 15s;
  while (done.load() < kWrites && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(done.load(), kWrites) << "some requests never completed";
  EXPECT_GT(ok.load(), 0);

  // The survivors re-elected; a fresh write must succeed.
  auto [status, result] = sync_op(client, put("after-failover", "yes"), 10000ms);
  EXPECT_EQ(status, Status::kOk);
  auto [get_status, get_result] = sync_op(client, get("after-failover"), 10000ms);
  EXPECT_EQ(get_status, Status::kOk);
  EXPECT_TRUE(get_result.ok);
  EXPECT_EQ(get_result.value, "yes");

  client.stop();
}

// --- durable cluster: compaction on the deployed path ------------------------

/// Three KvServers with their files under one data_dir. Ports are bound once
/// and kept, so a stopped replica restarts on the same ports from its files,
/// as an operator would restart a crashed process.
struct DurableServingCluster {
  std::filesystem::path dir;
  std::map<ServerId, std::uint16_t> raft_ports;
  std::map<ServerId, std::uint16_t> client_ports;
  std::map<ServerId, std::unique_ptr<KvServer>> servers;

  explicit DurableServingCluster(std::filesystem::path data_dir) : dir(std::move(data_dir)) {
    std::filesystem::create_directories(dir);
    std::map<ServerId, net::BoundListener> raft, client;
    for (ServerId id = 1; id <= 3; ++id) {
      raft[id] = net::bind_loopback_listener(0);
      client[id] = net::bind_loopback_listener(0);
      raft_ports[id] = raft[id].port;
      client_ports[id] = client[id].port;
    }
    for (ServerId id = 1; id <= 3; ++id) start(id, raft[id], client[id]);
  }

  ~DurableServingCluster() {
    for (auto& [id, server] : servers) {
      if (server) server->stop();
    }
  }

  void start(ServerId id, net::BoundListener raft, net::BoundListener client) {
    KvServer::Options options;
    options.node.node.heartbeat_interval = from_ms(60);
    options.node.listen_fd = raft.fd;
    options.node.data_dir = dir.string();
    options.node.seed = 77 + id;
    options.client_listen_fd = client.fd;
    servers[id] = std::make_unique<KvServer>(id, raft_ports, fast_escape(), options);
    servers[id]->start();
  }

  void kill(ServerId id) {
    servers.at(id)->stop();
    servers.at(id).reset();
  }

  void restart(ServerId id) {
    start(id, net::bind_loopback_listener(raft_ports.at(id)),
          net::bind_loopback_listener(client_ports.at(id)));
  }

  ServerId wait_for_leader(std::chrono::milliseconds timeout = 5000ms) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      for (const auto& [id, server] : servers) {
        if (server && server->node().role() == Role::kLeader) return id;
      }
      std::this_thread::sleep_for(10ms);
    }
    return kNoServer;
  }

  /// Every live replica reports the same commit index.
  bool commits_converge(std::chrono::milliseconds timeout) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      std::vector<LogIndex> commits;
      for (const auto& [id, server] : servers) {
        if (server) commits.push_back(server->node().commit_index());
      }
      const auto [lo, hi] = std::minmax_element(commits.begin(), commits.end());
      if (lo != commits.end() && *lo == *hi) return true;
      std::this_thread::sleep_for(10ms);
    }
    return false;
  }

  /// Bytes of replica `id`'s files named `S<id>` + `suffix` + anything.
  std::uintmax_t bytes(ServerId id, const std::string& suffix) const {
    const std::string prefix = server_name(id) + suffix;
    std::uintmax_t total = 0;
    for (const auto& item : std::filesystem::directory_iterator(dir)) {
      if (item.path().filename().string().rfind(prefix, 0) == 0) total += item.file_size();
    }
    return total;
  }
};

/// Writes the dedup probe (client 900, sequence 1) to the leader; a retry
/// sends `value` under the same identity. Returns the response status.
Status send_dedup_probe(std::uint16_t leader_port, const std::string& value) {
  const int fd = connect_blocking(leader_port);
  Request request;
  request.request_id = 1;
  request.command = put("dedup", value);
  request.command.client_id = 900;
  request.command.sequence = 1;
  const auto response = roundtrip(fd, request);
  ::close(fd);
  return response ? response->status : Status::kTimeout;
}

TEST(KvServerTest, DurableClusterCompactsAndCatchesUpBySnapshot) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("escape_kv_compaction_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    DurableServingCluster cluster(dir);
    const ServerId leader = cluster.wait_for_leader();
    ASSERT_NE(leader, kNoServer);
    // A follower goes down with (almost) an empty log and stays down until
    // the leader has compacted far past it.
    const ServerId follower = leader == 1 ? 2 : 1;
    cluster.kill(follower);
    ASSERT_EQ(send_dedup_probe(cluster.client_ports[leader], "original"), Status::kOk);

    // 100 keys x 200-byte values: a ~22 KB state, so the compaction
    // threshold is kCompactionRatio x state (> kMinCompactionBytes) and
    // 1600 Puts cross it several times.
    constexpr int kKeys = 100;
    constexpr int kWrites = 1600;
    std::map<std::string, std::string> expected;
    KvClient::Options options;
    options.timeout = from_ms(20'000);
    KvClient client(cluster.client_ports, 30'000, options);
    client.start();
    std::atomic<int> done{0};
    std::atomic<int> ok{0};
    for (int i = 0; i < kWrites; ++i) {
      const std::string key = "key" + std::to_string(i % kKeys);
      std::string value(200, static_cast<char>('a' + i % 26));
      value += std::to_string(i);
      expected[key] = value;
      // Writes to one key go in order: one key per lane would reorder them,
      // so the last of each key waits for everything before it.
      if (i + kKeys >= kWrites) {
        while (done.load() < i) std::this_thread::sleep_for(1ms);
      }
      client.submit(put(key, value), [&](Status status, const kv::CommandResult&) {
        if (status == Status::kOk) ok.fetch_add(1);
        done.fetch_add(1);
      });
    }
    const auto deadline = std::chrono::steady_clock::now() + 60s;
    while (done.load() < kWrites && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    ASSERT_EQ(ok.load(), kWrites);
    EXPECT_GE(cluster.servers[leader]->node().counters().snapshots_taken, 3u);

    cluster.restart(follower);
    ASSERT_TRUE(cluster.commits_converge(20s));
    EXPECT_GE(cluster.servers[follower]->node().counters().snapshots_installed, 1u);

    for (const auto& [key, value] : expected) {
      auto [status, result] = sync_op(client, get(key), 10000ms);
      ASSERT_EQ(status, Status::kOk) << key;
      EXPECT_EQ(result.value, value) << key;
    }
    client.stop();

    // Disk follows the state, not the history: per replica, the snapshot
    // plus at most two compaction intervals of WAL (each about
    // kCompactionRatio x the state), against ~27x without compaction.
    for (ServerId id = 1; id <= 3; ++id) {
      const auto state = cluster.bytes(id, ".snap");
      ASSERT_GT(state, 20'000u) << server_name(id);
      EXPECT_LE(cluster.bytes(id, ".wal") + state, 12 * state) << server_name(id);
    }
  }

  // Full-cluster restart: every store is rebuilt from its snapshot and WAL
  // suffix, dedup sessions included.
  DurableServingCluster restarted(dir);
  const ServerId leader = restarted.wait_for_leader();
  ASSERT_NE(leader, kNoServer);
  KvClient client(restarted.client_ports, 40'000);
  client.start();
  auto [status, result] = sync_op(client, get("key7"), 10000ms);
  ASSERT_EQ(status, Status::kOk);
  EXPECT_EQ(result.value.size(), 200u + 4u);
  EXPECT_EQ(result.value.substr(200), "1507");
  // The retried (client_id, sequence) is answered without executing again.
  EXPECT_EQ(send_dedup_probe(restarted.client_ports[leader], "replayed-must-not-apply"),
            Status::kOk);
  auto [dedup_status, dedup] = sync_op(client, get("dedup"), 10000ms);
  ASSERT_EQ(dedup_status, Status::kOk);
  EXPECT_EQ(dedup.value, "original");
  client.stop();
  restarted.servers.clear();
  std::filesystem::remove_all(dir);
}

// --- KvClient against a server that never answers ---------------------------

TEST(KvClientTest, TimeoutCompletesAtItsDeadlineWithoutASweep) {
  // The kernel completes the handshake on the listener's backlog; nothing
  // ever reads or answers, so only the client's own deadline ends the put.
  const net::BoundListener silent = net::bind_loopback_listener(0);
  KvClient::Options options;
  options.timeout = from_ms(200);
  KvClient client({{1, silent.port}}, 50'000, options);
  client.start();

  using Clock = std::chrono::steady_clock;
  std::promise<std::pair<Status, Clock::time_point>> done;
  auto outcome = done.get_future();
  const Clock::time_point submitted = Clock::now();
  client.submit(put("alpha", "1"), [&done](Status status, const kv::CommandResult&) {
    done.set_value({status, Clock::now()});
  });
  ASSERT_EQ(outcome.wait_for(5s), std::future_status::ready);
  const auto [status, at] = outcome.get();
  EXPECT_EQ(status, Status::kTimeout);
  EXPECT_GE(at - submitted, 200ms) << "completed before its deadline";
  EXPECT_LT(at - submitted, 250ms) << "deadline overshot by 50 ms or more";
  EXPECT_EQ(client.outstanding(), 0u);
  client.stop();
  ::close(silent.fd);
}

// --- KvClient against scripted servers --------------------------------------

/// A server that answers every request with one fixed status and leader
/// hint, counting the requests it received. Its loop runs from construction
/// to destruction.
struct ScriptedServer {
  net::EventLoop loop;
  net::EventLoop::ServiceId service;
  std::atomic<int> requests{0};

  ScriptedServer(Status status, ServerId hint) {
    net::EventLoop::Handler h;
    h.on_frames = [this, status, hint](net::EventLoop::ConnId conn,
                                       std::vector<std::vector<std::uint8_t>>&& frames) {
      for (const auto& payload : frames) {
        const auto request = decode_request(payload);
        if (!request) continue;
        requests.fetch_add(1);
        Response response;
        response.request_id = request->request_id;
        response.status = status;
        response.leader_hint = hint;
        loop.send(conn, rpc::frame_payload(encode_response(response)));
      }
    };
    service = loop.add_service(std::move(h), {});
    loop.listen(service, net::bind_loopback_listener(0));
    loop.start();
  }
  ~ScriptedServer() { loop.stop(); }

  std::uint16_t port() const { return loop.port(service); }
};

// The client's backoff before resending a refused command (kv_client.cpp).
constexpr auto kRetryBackoff = 10ms;

TEST(KvClientTest, NotLeaderHintIsFollowedAtOnce) {
  // S1 (the client's first guess) points at S2, which answers. Waiting out
  // the retry backoff before asking S2 would take at least kRetryBackoff.
  ScriptedServer s1(Status::kNotLeader, 2);
  ScriptedServer s2(Status::kOk, kNoServer);
  KvClient client({{1, s1.port()}, {2, s2.port()}}, 70'000);
  client.start();

  using Clock = std::chrono::steady_clock;
  std::promise<std::pair<Status, Clock::time_point>> done;
  auto outcome = done.get_future();
  const Clock::time_point submitted = Clock::now();
  client.submit(put("alpha", "1"), [&done](Status status, const kv::CommandResult&) {
    done.set_value({status, Clock::now()});
  });
  ASSERT_EQ(outcome.wait_for(5s), std::future_status::ready);
  const auto [status, at] = outcome.get();
  EXPECT_EQ(status, Status::kOk);
  EXPECT_LT(at - submitted, kRetryBackoff) << "the redirect waited for the backoff";
  EXPECT_EQ(s1.requests.load(), 1);
  EXPECT_EQ(s2.requests.load(), 1);
  client.stop();
}

TEST(KvClientTest, ServersHintingEachOtherDoNotSpinTheClient) {
  // Mid-election, S1 and S2 may each name the other. A redirect that
  // bounces straight back waits the backoff, so each server sees about one
  // request per backoff period until the deadline ends the command.
  ScriptedServer s1(Status::kNotLeader, 2);
  ScriptedServer s2(Status::kNotLeader, 1);
  KvClient::Options options;
  options.timeout = from_ms(200);
  KvClient client({{1, s1.port()}, {2, s2.port()}}, 80'000, options);
  client.start();

  const auto [status, result] = sync_op(client, put("alpha", "1"));
  EXPECT_EQ(status, Status::kTimeout);
  constexpr int kMaxRequests = 200 / 10 + 2;
  EXPECT_GE(s1.requests.load(), 1);
  EXPECT_LE(s1.requests.load(), kMaxRequests);
  EXPECT_LE(s2.requests.load(), kMaxRequests);
  client.stop();
}

TEST(KvClientTest, StopCompletesPostedButUnrunSubmitsWithRetry) {
  const net::BoundListener silent = net::bind_loopback_listener(0);
  KvClient::Options options;
  options.timeout = from_ms(50);
  KvClient client({{1, silent.port}}, 60'000, options);
  client.start();

  // The first command's timeout callback holds the client's loop thread, so
  // the submits that follow stay posted but unrun until stop() begins.
  std::promise<void> entered, release;
  auto released = release.get_future().share();
  client.submit(put("alpha", "1"), [&entered, released](Status, const kv::CommandResult&) {
    entered.set_value();
    released.wait();
  });
  ASSERT_EQ(entered.get_future().wait_for(5s), std::future_status::ready);

  constexpr int kQueued = 100;
  std::atomic<int> retried{0};
  std::atomic<int> other{0};
  for (int i = 0; i < kQueued; ++i) {
    client.submit(i % 2 ? get("alpha") : put("alpha", std::to_string(i)),
                  [&](Status status, const kv::CommandResult&) {
                    (status == Status::kRetry ? retried : other).fetch_add(1);
                  });
  }
  EXPECT_EQ(client.outstanding(), static_cast<std::size_t>(kQueued) + 1);
  std::thread stopper([&] { client.stop(); });
  std::this_thread::sleep_for(20ms);
  release.set_value();
  stopper.join();
  EXPECT_EQ(retried.load(), kQueued);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(client.outstanding(), 0u);

  // After stop() a submit completes at once, on the caller's thread.
  Status late = Status::kOk;
  client.submit(get("alpha"), [&](Status status, const kv::CommandResult&) { late = status; });
  EXPECT_EQ(late, Status::kRetry);
  ::close(silent.fd);
}

}  // namespace
}  // namespace escape::serve
