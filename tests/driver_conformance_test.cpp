// Driver conformance: the simulator's drain (a raft::NodeDriver with
// immediate hooks, as SimCluster wires it) and the TCP runtime's drain
// (net::Replica, exactly the code RealNode runs on its loop thread, with a
// fake send sink in place of sockets) must drive one core identically. A
// scripted three-node scenario — election, replication, leader failover,
// snapshot catch-up of a lagging restart, and a linearizable read — runs
// once through each runtime over in-memory storage, single threaded on a
// virtual clock, and the per-node Ready streams (observed at the NodeDriver
// underneath) must be byte-identical.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/real_cluster.h"
#include "raft/driver.h"
#include "raft/raft_node.h"
#include "storage/snapshot_store.h"
#include "storage/state_store.h"
#include "storage/wal.h"
#include "test_ready_fingerprint.h"

namespace escape::raft {
namespace {

constexpr Duration kMin = from_ms(100);
constexpr Duration kMax = from_ms(200);
constexpr Duration kStep = from_ms(10);

enum class Style { kSim, kReal };

NodeOptions test_options() {
  NodeOptions opts;
  opts.heartbeat_interval = from_ms(30);
  return opts;
}

/// One server: durable stores that outlive crashes, plus a per-incarnation
/// drain in the chosen runtime's style.
struct Server {
  net::Stores stores{std::make_unique<storage::MemoryStateStore>(),
                     std::make_unique<storage::MemoryWal>(),
                     std::make_unique<storage::MemorySnapshotStore>()};
  // kSim: a bare driver + core, as SimCluster hosts them.
  std::unique_ptr<NodeDriver> sim;
  std::unique_ptr<RaftNode> sim_node;
  // kReal: RealNode's loop-thread half.
  std::unique_ptr<net::Replica> real;
  bool alive = false;
  std::string stream;  ///< concatenated Ready fingerprints, all incarnations

  RaftNode& node() { return real ? real->node() : *sim_node; }
};

class MiniCluster {
 public:
  MiniCluster(Style style, std::uint64_t seed) : style_(style), seed_(seed) {
    for (ServerId id : members_) boot(id);
  }

  void start_all(TimePoint now) {
    for (ServerId id : members_) start(id, now);
  }

  void boot(ServerId id) {
    Server& s = servers_[id];
    crash(id);
    auto policy = std::make_unique<RaftRandomizedPolicy>(kMin, kMax);
    Rng rng(seed_ ^ (0xAB00 + id));
    NodeDriver::Hooks* hooks;
    if (style_ == Style::kSim) {
      s.sim = std::make_unique<NodeDriver>(*s.stores.state, *s.stores.wal,
                                           s.stores.snapshots.get());
      s.sim_node = std::make_unique<RaftNode>(id, members_, std::move(policy), std::move(rng),
                                              test_options(), s.sim->recover());
      s.sim->attach(*s.sim_node);
      hooks = &s.sim->hooks();
    } else {
      s.real = std::make_unique<net::Replica>(id, members_, std::move(policy), std::move(rng),
                                              test_options(), s.stores);
      hooks = &s.real->hooks();
    }
    hooks->send = [this](const std::vector<rpc::Envelope>& batch) {
      for (const auto& env : batch) wire_.push_back(env);
    };
    hooks->read = [this](const ReadGrant& grant) { grants_.push_back(grant); };
    hooks->observe = [&s](const Ready& rd) { s.stream += fingerprint(rd); };
    s.alive = true;
  }

  void crash(ServerId id) {
    Server& s = servers_.at(id);
    s.alive = false;
    s.real.reset();
    s.sim_node.reset();
    s.sim.reset();
  }

  void recover(ServerId id, TimePoint now) {
    boot(id);
    start(id, now);
  }

  void start(ServerId id, TimePoint now) {
    Server& s = servers_.at(id);
    if (style_ == Style::kSim) {
      s.sim_node->start(now);
    } else {
      s.real->start(now);
    }
    drain(id, now);
  }

  /// Drains every pending batch through the runtime under test.
  void drain(ServerId id, TimePoint now) {
    Server& s = servers_.at(id);
    if (!s.alive) return;
    if (style_ == Style::kSim) {
      s.sim->pump();
    } else {
      s.real->pump(now);
    }
  }

  /// Delivers every queued envelope (in order), draining after each step;
  /// deliveries may enqueue more until the wire goes quiet.
  void deliver_all(TimePoint now) {
    while (!wire_.empty()) {
      const rpc::Envelope env = wire_.front();
      wire_.pop_front();
      Server& dst = servers_.at(env.to);
      if (!dst.alive) continue;
      dst.node().step(env, now);
      drain(env.to, now);
    }
  }

  void tick_all(TimePoint now) {
    for (ServerId id : members_) {
      Server& s = servers_.at(id);
      if (!s.alive) continue;
      s.node().tick(now);
      drain(id, now);
    }
  }

  ServerId leader() {
    ServerId best = kNoServer;
    Term best_term = -1;
    for (ServerId id : members_) {
      Server& s = servers_.at(id);
      if (s.alive && s.node().role() == Role::kLeader && s.node().term() > best_term) {
        best = id;
        best_term = s.node().term();
      }
    }
    return best;
  }

  Server& server(ServerId id) { return servers_.at(id); }
  const std::vector<ReadGrant>& grants() const { return grants_; }

 private:
  Style style_;
  std::uint64_t seed_;
  std::vector<ServerId> members_{1, 2, 3};
  std::map<ServerId, Server> servers_;
  std::deque<rpc::Envelope> wire_;
  std::vector<ReadGrant> grants_;
};

struct ScenarioResult {
  std::map<ServerId, std::string> streams;
  ServerId first_leader = kNoServer;
  ServerId second_leader = kNoServer;
  bool read_granted = false;
};

/// The recorded scenario: elect, replicate, fail over, compact, catch the
/// restarted server up by snapshot, serve a lease read. All decision points
/// (who leads, when) emerge deterministically from the seeded cores.
ScenarioResult run_scenario(Style style, std::uint64_t seed) {
  MiniCluster cluster(style, seed);
  ScenarioResult result;
  cluster.start_all(0);

  std::uint8_t payload = 0;
  ServerId crashed = kNoServer;
  for (TimePoint now = kStep; now <= from_ms(4000); now += kStep) {
    cluster.tick_all(now);
    cluster.deliver_all(now);
    const ServerId leader = cluster.leader();

    if (now == from_ms(1000) && leader != kNoServer) {
      result.first_leader = leader;
      for (int i = 0; i < 5; ++i) {
        cluster.server(leader).node().submit({++payload}, now);
        cluster.drain(leader, now);
      }
      cluster.deliver_all(now);
    }
    if (now == from_ms(1500) && result.first_leader != kNoServer && crashed == kNoServer) {
      crashed = result.first_leader;
      cluster.crash(crashed);
    }
    if (now == from_ms(2500) && leader != kNoServer && leader != crashed) {
      result.second_leader = leader;
      for (int i = 0; i < 3; ++i) {
        cluster.server(leader).node().submit({++payload}, now);
        cluster.drain(leader, now);
      }
      cluster.deliver_all(now);
      // Compact the survivors so the crashed server returns behind the log
      // base and must catch up by snapshot.
      for (ServerId id : {ServerId{1}, ServerId{2}, ServerId{3}}) {
        if (id == crashed) continue;
        auto& s = cluster.server(id);
        s.node().compact(s.node().last_applied(), {0xEE}, now);
        cluster.drain(id, now);
      }
    }
    if (now == from_ms(2800) && crashed != kNoServer) {
      cluster.recover(crashed, now);
      crashed = kNoServer;
    }
    if (now == from_ms(3500) && leader != kNoServer) {
      cluster.server(leader).node().submit_read(now);
      cluster.drain(leader, now);
      cluster.deliver_all(now);
    }
  }

  for (ServerId id : {ServerId{1}, ServerId{2}, ServerId{3}}) {
    result.streams[id] = std::move(cluster.server(id).stream);
  }
  for (const auto& grant : cluster.grants()) {
    if (grant.ok) result.read_granted = true;
  }
  return result;
}

class DriverConformanceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DriverConformanceTest, SimAndRealDrainsProduceIdenticalReadyStreams) {
  const ScenarioResult sim = run_scenario(Style::kSim, GetParam());
  const ScenarioResult real = run_scenario(Style::kReal, GetParam());

  // The scenario must actually have exercised its beats.
  ASSERT_NE(sim.first_leader, kNoServer) << "no leader elected by t=1s";
  ASSERT_NE(sim.second_leader, kNoServer) << "no failover leader by t=2.5s";
  EXPECT_NE(sim.first_leader, sim.second_leader);
  EXPECT_TRUE(sim.read_granted);
  EXPECT_TRUE(real.read_granted);

  // Identical dynamics...
  EXPECT_EQ(sim.first_leader, real.first_leader);
  EXPECT_EQ(sim.second_leader, real.second_leader);

  // ...and byte-identical per-node Ready streams.
  for (ServerId id : {ServerId{1}, ServerId{2}, ServerId{3}}) {
    ASSERT_FALSE(sim.streams.at(id).empty());
    EXPECT_EQ(sim.streams.at(id), real.streams.at(id)) << "node " << id << " diverged";
  }
}

TEST_P(DriverConformanceTest, ScenarioCoversSnapshotCatchUp) {
  const ScenarioResult sim = run_scenario(Style::kSim, GetParam());
  // The restarted server must have been caught up by InstallSnapshot: its
  // stream contains a restore (or it booted from a stored snapshot after a
  // later crash — either way a restore fingerprint appears somewhere).
  bool restored = false;
  for (const auto& [id, stream] : sim.streams) {
    if (stream.find("restore ") != std::string::npos) restored = true;
  }
  EXPECT_TRUE(restored) << "scenario never exercised snapshot catch-up";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverConformanceTest, ::testing::Values(7, 21, 42));

}  // namespace
}  // namespace escape::raft
