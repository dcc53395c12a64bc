// Tests for the KvCluster synchronous client: sequencing, retries across
// leaderless windows, and state-machine rebuilds on recovery.
#include <gtest/gtest.h>

#include "kv/kv_cluster.h"
#include "test_cluster_util.h"

namespace escape::kv {
namespace {

using sim::SimCluster;
using testutil::paper_escape_cluster;

TEST(KvClusterTest, OperationsReturnResults) {
  SimCluster cluster(paper_escape_cluster(3, 11));
  KvCluster kv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);

  const auto put = kv.put("k", "v1");
  ASSERT_TRUE(put.has_value());
  EXPECT_TRUE(put->ok);
  EXPECT_EQ(put->value, "");  // no previous value

  const auto put2 = kv.put("k", "v2");
  ASSERT_TRUE(put2.has_value());
  EXPECT_EQ(put2->value, "v1");  // previous value reported

  EXPECT_EQ(kv.get("k")->value, "v2");
  EXPECT_TRUE(kv.del("k")->ok);
  EXPECT_FALSE(kv.get("k")->ok);
}

TEST(KvClusterTest, TimesOutWithoutQuorum) {
  SimCluster cluster(paper_escape_cluster(3, 12));
  KvCluster kv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  // Kill a majority: nothing can commit.
  ServerId killed = kNoServer;
  for (ServerId id : cluster.members()) {
    if (id != cluster.leader()) {
      cluster.crash(id);
      killed = id;
      break;
    }
  }
  cluster.crash(cluster.leader());
  const auto r = kv.put("k", "v", from_ms(5'000));
  EXPECT_FALSE(r.has_value());
  (void)killed;
}

TEST(KvClusterTest, RetriesAcrossLeaderlessWindow) {
  SimCluster cluster(paper_escape_cluster(5, 13));
  KvCluster kv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  // Crash the leader and immediately issue a write: the client must wait
  // out the election and commit through the successor.
  cluster.crash(cluster.leader());
  const auto r = kv.put("after-crash", "ok", from_ms(30'000));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
  EXPECT_EQ(kv.get("after-crash")->value, "ok");
}

TEST(KvClusterTest, RecoveredReplicaRebuildsIdenticalState) {
  SimCluster cluster(paper_escape_cluster(3, 14));
  KvCluster kv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(kv.put("k" + std::to_string(i), std::to_string(i * i)).has_value());
  }
  ServerId victim = kNoServer;
  for (ServerId id : cluster.members()) {
    if (id != cluster.leader()) {
      victim = id;
      break;
    }
  }
  cluster.crash(victim);
  ASSERT_TRUE(kv.put("while-down", "x").has_value());
  cluster.recover(victim);
  const LogIndex commit = cluster.node(cluster.leader()).commit_index();
  ASSERT_TRUE(cluster.run_until_applied(commit, cluster.loop().now() + from_ms(30'000)));
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(kv.store(victim).peek("k" + std::to_string(i)), std::to_string(i * i));
  }
  EXPECT_EQ(kv.store(victim).peek("while-down"), "x");
}

TEST(KvClusterTest, LinearizableReadObservesAcknowledgedWrites) {
  SimCluster cluster(paper_escape_cluster(3, 16));
  KvCluster kv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  ASSERT_TRUE(kv.put("k", "v1").has_value());
  const auto r = kv.read("k");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
  EXPECT_EQ(r->value, "v1");
  // Absent keys read as not-ok, like get().
  const auto miss = kv.read("nope");
  ASSERT_TRUE(miss.has_value());
  EXPECT_FALSE(miss->ok);
}

TEST(KvClusterTest, ReadsUseTheFastPathNotTheLog) {
  SimCluster cluster(paper_escape_cluster(3, 17));
  KvCluster kv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  ASSERT_TRUE(kv.put("k", "v").has_value());
  const ServerId leader = cluster.leader();
  const LogIndex last = cluster.node(leader).log().last_index();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(kv.read("k").has_value());
  }
  // No log growth: the reads never rode the replicated log.
  EXPECT_EQ(cluster.node(leader).log().last_index(), last);
  const auto& counters = cluster.node(leader).counters();
  EXPECT_EQ(counters.lease_reads + counters.read_index_reads, 8u);
  // The steady-state cluster has a standing lease (heartbeats every 500 ms,
  // lease 0.75 x 1500 ms baseTime), so most reads cost zero messages.
  EXPECT_GT(counters.lease_reads, 0u);
}

TEST(KvClusterTest, ForeignProbeGrantsDoNotDisturbClientReads) {
  // Scenario ClientRead probes share the cluster's read path with the KV
  // client. A client read completes only with the grant of its own
  // submit_read — never a foreign probe's — including the lease grant that
  // lands inside submit_read itself.
  SimCluster cluster(paper_escape_cluster(3, 19));
  KvCluster kv(cluster);
  sim::InvariantChecker invariants(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  ASSERT_TRUE(kv.put("k", "v1").has_value());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.submit_read(cluster.leader()).has_value());
    const auto r = kv.read("k");
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->ok);
    EXPECT_EQ(r->value, "v1");
  }
  // Both the client tickets and the foreign probes were audited against the
  // probe ledger; none of the interleavings produced a stale read.
  EXPECT_GE(invariants.reads_checked(), 15u);
  EXPECT_TRUE(invariants.ok()) << invariants.violations().front();
}

TEST(KvClusterTest, ReadsNeverStaleAcrossFailover) {
  SimCluster cluster(paper_escape_cluster(5, 18));
  KvCluster kv(cluster);
  sim::InvariantChecker invariants(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  // Repeatedly: acknowledge a write, kill the leader, and require the read
  // served by whoever leads next to observe that write — the classic stale
  // read a deposed leaseholder would serve.
  for (int round = 0; round < 3; ++round) {
    const std::string want = "v" + std::to_string(round);
    ASSERT_TRUE(kv.put("x", want).has_value());
    cluster.crash(cluster.leader());
    const auto r = kv.read("x", from_ms(60'000));
    ASSERT_TRUE(r.has_value()) << "round " << round;
    EXPECT_EQ(r->value, want) << "round " << round;
    // Recover the victim so the next round keeps a healthy majority.
    for (ServerId id : cluster.members()) {
      if (!cluster.alive(id)) cluster.recover(id);
    }
    ASSERT_NE(cluster.run_until_leader(cluster.loop().now() + from_ms(60'000)), kNoServer);
  }
  EXPECT_TRUE(invariants.ok()) << invariants.violations().front();
  EXPECT_GT(invariants.reads_checked(), 0u);
}

TEST(KvClusterTest, SequencesAreMonotonicAcrossOps) {
  // Each op gets a fresh sequence; duplicate suppression is keyed on it.
  SimCluster cluster(paper_escape_cluster(3, 15));
  KvCluster kv(cluster);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(kv.put("a", std::to_string(i)).has_value());
  }
  EXPECT_EQ(kv.get("a")->value, "4");  // last write wins, none dropped as dup
}

}  // namespace
}  // namespace escape::kv
