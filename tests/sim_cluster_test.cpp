// Tests for the SimCluster harness itself: lifecycle, fault injection
// semantics, timer scheduling, and observation plumbing.
#include <gtest/gtest.h>

#include "test_cluster_util.h"

namespace escape {
namespace {

using sim::SimCluster;
using testutil::paper_escape_cluster;

TEST(SimClusterTest, RejectsZeroSize) {
  sim::ClusterOptions options;
  options.size = 0;
  EXPECT_THROW(SimCluster cluster(options), std::invalid_argument);
}

TEST(SimClusterTest, MembersAreDenseFromOne) {
  SimCluster cluster(paper_escape_cluster(4, 1));
  ASSERT_EQ(cluster.size(), 4u);
  EXPECT_EQ(cluster.members(), (std::vector<ServerId>{1, 2, 3, 4}));
}

TEST(SimClusterTest, DoubleStartThrows) {
  SimCluster cluster(paper_escape_cluster(3, 1));
  cluster.start_all();
  EXPECT_THROW(cluster.start_all(), std::logic_error);
}

TEST(SimClusterTest, CrashedNodeIsInaccessible) {
  SimCluster cluster(paper_escape_cluster(3, 2));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  cluster.crash(2);
  EXPECT_FALSE(cluster.alive(2));
  EXPECT_THROW(cluster.node(2), std::logic_error);
  EXPECT_THROW(cluster.crash(2), std::logic_error);  // node already gone
}

TEST(SimClusterTest, RecoverRequiresCrashed) {
  SimCluster cluster(paper_escape_cluster(3, 3));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  EXPECT_THROW(cluster.recover(1), std::logic_error);
}

TEST(SimClusterTest, DurableStateSurvivesCrash) {
  SimCluster cluster(paper_escape_cluster(3, 4));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  sim::drive_traffic(cluster, from_ms(1'000), from_ms(200));
  ServerId follower = kNoServer;
  for (ServerId id : cluster.members()) {
    if (id != cluster.leader()) {
      follower = id;
      break;
    }
  }
  const Term term_before = cluster.node(follower).term();
  const auto entries_before = cluster.wal(follower).entries().size();
  EXPECT_GT(entries_before, 0u);

  cluster.crash(follower);
  // Disk contents survive the crash...
  EXPECT_EQ(cluster.wal(follower).entries().size(), entries_before);
  ASSERT_TRUE(cluster.state_store(follower).load().has_value());

  cluster.recover(follower);
  // ...and the reincarnated node starts from them.
  EXPECT_GE(cluster.node(follower).term(), term_before);
  EXPECT_EQ(cluster.node(follower).log().last_index(),
            static_cast<LogIndex>(entries_before));
}

TEST(SimClusterTest, LeaderReturnsHighestTermLeader) {
  SimCluster cluster(paper_escape_cluster(5, 5));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  // Partition the leader; a new one emerges in a higher term while the old
  // one still believes it leads. leader() must prefer the newer regime.
  const ServerId old_leader = cluster.leader();
  cluster.network().isolate(old_leader);
  const auto elected = cluster.run_until_event(
      [&](const raft::NodeEvent& e) {
        return e.kind == raft::NodeEvent::Kind::kBecameLeader && e.node != old_leader;
      },
      cluster.loop().now() + from_ms(60'000));
  ASSERT_TRUE(elected.has_value());
  EXPECT_EQ(cluster.leader(), elected->node);
  cluster.network().heal(old_leader);
}

TEST(SimClusterTest, SubmitViaLeaderRoutesAndCommits) {
  SimCluster cluster(paper_escape_cluster(3, 6));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const auto index = cluster.submit_via_leader({1, 2, 3});
  ASSERT_TRUE(index.has_value());
  EXPECT_TRUE(cluster.run_until_applied(*index, cluster.loop().now() + from_ms(10'000)));
  for (ServerId id : cluster.members()) {
    ASSERT_FALSE(cluster.applied(id).empty());
    EXPECT_EQ(cluster.applied(id).back().command, (std::vector<std::uint8_t>{1, 2, 3}));
  }
}

TEST(SimClusterTest, SubmitWithoutLeaderReturnsNull) {
  SimCluster cluster(paper_escape_cluster(3, 7));
  cluster.start_all();
  EXPECT_FALSE(cluster.submit_via_leader({1}).has_value());
}

TEST(SimClusterTest, ApplyHookObservesEveryCommit) {
  SimCluster cluster(paper_escape_cluster(3, 8));
  std::map<ServerId, int> applies;
  cluster.set_apply_hook([&](ServerId id, const rpc::LogEntry&) { ++applies[id]; });
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  sim::drive_traffic(cluster, from_ms(1'500), from_ms(300));
  const LogIndex commit = cluster.node(cluster.leader()).commit_index();
  ASSERT_GT(commit, 0);
  ASSERT_TRUE(cluster.run_until_applied(commit, cluster.loop().now() + from_ms(10'000)));
  for (ServerId id : cluster.members()) {
    EXPECT_EQ(applies[id], static_cast<int>(commit)) << server_name(id);
  }
}

TEST(SimClusterTest, LeaseReadCompletesBeforeSubmitReadReturns) {
  SimCluster cluster(paper_escape_cluster(3, 17));
  const ServerId leader = sim::bootstrap(cluster);
  ASSERT_NE(leader, kNoServer);
  ASSERT_TRUE(cluster.submit_via_leader({1}).has_value());
  // Quorum-acknowledged heartbeat rounds establish the lease.
  cluster.loop().run_until(cluster.loop().now() + from_ms(2000));
  ASSERT_EQ(cluster.leader(), leader);

  std::vector<raft::ReadGrant> grants;
  const auto read =
      cluster.submit_read(leader, [&](const raft::ReadGrant& grant) { grants.push_back(grant); });
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(grants.size(), 1u) << "the lease read did not complete inside submit_read";
  EXPECT_EQ(grants[0].id, *read);
  EXPECT_TRUE(grants[0].ok);
  EXPECT_TRUE(grants[0].via_lease);
  EXPECT_FALSE(cluster.read_floor(leader, *read).has_value());  // ledger entry gone
  cluster.loop().run_until(cluster.loop().now() + from_ms(1000));
  EXPECT_EQ(grants.size(), 1u);  // once
}

TEST(SimClusterTest, EventLogClearKeepsListeners) {
  SimCluster cluster(paper_escape_cluster(3, 9));
  int events = 0;
  cluster.add_event_listener([&](const raft::NodeEvent&) { ++events; });
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const int before = events;
  cluster.clear_event_log();
  EXPECT_TRUE(cluster.event_log().empty());
  sim::drive_traffic(cluster, from_ms(1'000), from_ms(250));
  EXPECT_GT(events, before);  // listener still firing after the clear
}

TEST(SimClusterTest, DeterministicReplay) {
  // Identical options + seed => bit-identical event history.
  auto run_once = [] {
    SimCluster cluster(paper_escape_cluster(5, 0xD5));
    sim::bootstrap(cluster);
    sim::measure_failover(cluster);
    std::vector<std::tuple<int, ServerId, Term, TimePoint>> trace;
    for (const auto& e : cluster.event_log()) {
      trace.emplace_back(static_cast<int>(e.kind), e.node, e.term, e.at);
    }
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimClusterTest, SeedsChangeOutcomes) {
  auto leader_for_seed = [](std::uint64_t seed) {
    SimCluster cluster(testutil::paper_raft_cluster(5, seed));
    return sim::bootstrap(cluster);
  };
  std::set<ServerId> leaders;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) leaders.insert(leader_for_seed(seed));
  EXPECT_GT(leaders.size(), 1u);  // randomized Raft spreads first leadership
}

}  // namespace
}  // namespace escape
