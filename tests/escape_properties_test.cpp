// Cluster-level properties tied to the paper's Section V arguments:
// term scattering of concurrent campaigns, Lemma 3 configuration
// uniqueness under churn, clock monotonicity, and the detection-order
// optimization (the top-priority follower detects first).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "test_cluster_util.h"

namespace escape {
namespace {

using sim::InvariantChecker;
using sim::SimCluster;
using testutil::paper_escape_cluster;

class EscapePropertySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EscapePropertySeeds, WinnerIsTopPriorityFollower) {
  // Section IV-B: "the server with the highest-priority configuration has
  // the maximum potential to detect the leader failure and initiate a new
  // election campaign before any other servers".
  SimCluster cluster(paper_escape_cluster(7, GetParam()));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);

  // Snapshot priorities at crash time.
  const ServerId leader = cluster.leader();
  ServerId top = kNoServer;
  Priority best = 0;
  for (ServerId id : cluster.members()) {
    if (id == leader) continue;
    const auto p = cluster.node(id).policy().current_config().priority;
    if (p > best) {
      best = p;
      top = id;
    }
  }
  const auto result = sim::measure_failover(cluster);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.new_leader, top);
  EXPECT_EQ(best, static_cast<Priority>(cluster.size()));  // pool top is n
}

TEST_P(EscapePropertySeeds, ConcurrentCampaignsNeverShareATerm) {
  // SCA's purpose (Section IV-A): simultaneous campaigns are scattered into
  // different terms, so "flocked elections" cannot form. Verified over the
  // whole event history of a multi-failover run.
  SimCluster cluster(paper_escape_cluster(5, GetParam() ^ 0xFACE));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  for (int round = 0; round < 2; ++round) {
    const ServerId victim = cluster.leader();
    const auto result = sim::measure_failover(cluster);
    ASSERT_TRUE(result.converged);
    cluster.recover(victim);
    cluster.loop().run_until(cluster.loop().now() + from_ms(3'000));
  }

  std::map<Term, std::set<ServerId>> campaigns_by_term;
  for (const auto& e : cluster.event_log()) {
    if (e.kind == raft::NodeEvent::Kind::kCampaignStarted) {
      campaigns_by_term[e.term].insert(e.node);
    }
  }
  for (const auto& [term, nodes] : campaigns_by_term) {
    EXPECT_LE(nodes.size(), 1u) << "flocked election in term " << term;
  }
}

TEST_P(EscapePropertySeeds, ConfigUniquenessHoldsThroughChurn) {
  // Lemma 3 via the continuous checker, including recoveries (the stale
  // configuration of a recovered server lives in an older confClock, which
  // is exactly what the lemma permits).
  SimCluster cluster(paper_escape_cluster(5, GetParam() ^ 0xBEE));
  InvariantChecker inv(cluster, /*check_configs=*/true);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);

  for (int round = 0; round < 3; ++round) {
    const ServerId victim = cluster.leader();
    ASSERT_TRUE(sim::measure_failover(cluster).converged);
    cluster.recover(victim);
    cluster.loop().run_until(cluster.loop().now() + from_ms(4'000));
  }
  EXPECT_TRUE(inv.ok()) << inv.violations().front();
}

TEST(EscapePropertyTest, ConfigUniquenessCheckerReportsACollision) {
  // The Lemma 3 checker must be able to fire: force two live followers onto
  // the same pi(P, k) and crash the leader. The successor's election runs
  // the full scan before its first patrol re-deals anything, so the
  // collision is still there to be found, and both holders are named.
  SimCluster cluster(paper_escape_cluster(7, 11));
  InvariantChecker inv(cluster, /*check_configs=*/true);
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  ASSERT_TRUE(inv.ok()) << inv.violations().front();

  // The two lowest-priority followers: neither detects the crash first, so
  // neither is the successor whose own configuration the patrol rewrites.
  const ServerId leader = cluster.leader();
  std::vector<std::pair<Priority, ServerId>> ranked;
  for (ServerId id : cluster.members()) {
    if (id != leader) ranked.emplace_back(cluster.node(id).policy().current_config().priority, id);
  }
  std::sort(ranked.begin(), ranked.end());
  const ServerId a = ranked[0].second;
  const ServerId b = ranked[1].second;
  const rpc::Configuration shared = cluster.node(a).policy().current_config();
  cluster.node(b).mutable_policy().restore(shared);

  cluster.crash(leader);
  ASSERT_NE(cluster.run_until_leader(cluster.loop().now() + from_ms(60'000)), kNoServer);
  ASSERT_FALSE(inv.ok());
  std::ostringstream want;
  want << "config uniqueness (Lemma 3): pi(P=" << shared.priority << ",k=" << shared.conf_clock
       << ") held by both " << server_name(std::min(a, b)) << " and "
       << server_name(std::max(a, b));
  EXPECT_EQ(inv.violations().front(), want.str());
}

TEST_P(EscapePropertySeeds, ConfClockIsMonotonicPerServer) {
  SimCluster cluster(paper_escape_cluster(5, GetParam() ^ 0xC10C));
  std::map<ServerId, ConfClock> last_clock;
  bool monotone = true;
  cluster.add_event_listener([&](const raft::NodeEvent& e) {
    if (e.kind != raft::NodeEvent::Kind::kConfigAdopted) return;
    auto [it, inserted] = last_clock.try_emplace(e.node, e.config.conf_clock);
    if (!inserted) {
      if (e.config.conf_clock <= it->second) monotone = false;
      it->second = e.config.conf_clock;
    }
  });
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  ASSERT_TRUE(sim::measure_failover(cluster).converged);
  cluster.loop().run_until(cluster.loop().now() + from_ms(5'000));
  EXPECT_TRUE(monotone);
  EXPECT_FALSE(last_clock.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EscapePropertySeeds, ::testing::Values(3, 7, 19, 43, 71));

TEST(EscapePropertyTest, StaleRecoveredServerCannotWin) {
  // Figure 5b end-to-end: a server that recovers with a stale high-priority
  // configuration must not beat the patrol-groomed candidate.
  SimCluster cluster(paper_escape_cluster(5, 1234));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);

  // Find the top-priority follower and crash it.
  const ServerId leader = cluster.leader();
  ServerId top = kNoServer;
  Priority best = 0;
  for (ServerId id : cluster.members()) {
    if (id == leader) continue;
    const auto p = cluster.node(id).policy().current_config().priority;
    if (p > best) {
      best = p;
      top = id;
    }
  }
  cluster.crash(top);
  // Give the patrol time to reassign the top priority (it reacts once the
  // crashed follower's responsiveness lags materially; generate traffic so
  // the log advances past the hysteresis threshold).
  sim::drive_traffic(cluster, from_ms(4'000), from_ms(100));
  cluster.recover(top);
  cluster.loop().run_until(cluster.loop().now() + from_ms(300));

  // Crash the leader while the recovered server still holds its stale
  // high-priority configuration.
  const auto result = sim::measure_failover(cluster, from_ms(60'000));
  ASSERT_TRUE(result.converged);
  EXPECT_NE(result.new_leader, top)
      << "stale-clocked server won despite the confClock rule";
}

TEST(EscapePropertyTest, TermGrowthFollowsEquation2) {
  // Every ESCAPE campaign bumps the term by exactly the campaigner's
  // current priority.
  SimCluster cluster(paper_escape_cluster(5, 4321));
  std::map<ServerId, Term> term_before;
  bool eq2_holds = true;
  cluster.add_event_listener([&](const raft::NodeEvent& e) {
    if (e.kind != raft::NodeEvent::Kind::kCampaignStarted) return;
    const auto priority = cluster.node(e.node).policy().current_config().priority;
    // The campaign term carried by the event is the post-bump term; the
    // node's pre-bump term is not directly observable here, so check the
    // congruence against the recorded previous campaign/stepdown term.
    const auto it = term_before.find(e.node);
    if (it != term_before.end() && e.term - it->second != priority &&
        e.term - it->second < priority) {
      eq2_holds = false;  // grew by less than the priority: Eq. 2 violated
    }
    term_before[e.node] = e.term;
  });
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  ASSERT_TRUE(sim::measure_failover(cluster).converged);
  EXPECT_TRUE(eq2_holds);
}

TEST(EscapePropertyTest, LeaderParksAtBottomPriority) {
  SimCluster cluster(paper_escape_cluster(6, 99));
  ASSERT_NE(sim::bootstrap(cluster), kNoServer);
  const ServerId leader = cluster.leader();
  EXPECT_EQ(cluster.node(leader).policy().current_config().priority, 1);
  // And the pool {2..n} is fully distributed among followers.
  std::set<Priority> pool;
  for (ServerId id : cluster.members()) {
    if (id != leader) pool.insert(cluster.node(id).policy().current_config().priority);
  }
  EXPECT_EQ(pool, (std::set<Priority>{2, 3, 4, 5, 6}));
}

}  // namespace
}  // namespace escape
