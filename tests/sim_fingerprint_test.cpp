// Behaviour fingerprint of the paper-scale simulation: a fixed-seed, n = 128,
// 10%-loss ESCAPE cluster bootstraps and then survives three crash-the-leader
// failovers (the same series protocol fig09/fig11 and perfbench's
// election_scale_sim use). Every pinned value below is an exact count taken
// from the simulator; a refactor that only changes how fast the leader does
// its bookkeeping (commit advance, read-round confirmation, the patrol deal,
// the Lemma 3 check) must leave all of them unchanged. A change here means
// the protocol's behaviour changed, not just its cost.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "sim/invariants.h"
#include "sim/presets.h"
#include "sim/scenario.h"

namespace escape {
namespace {

struct FailoverPin {
  ServerId winner;
  Term term;
  std::size_t campaigns;
};

constexpr std::size_t kNodes = 128;
constexpr double kLoss = 0.10;
constexpr std::uint64_t kSeed = 0xF1A6E5;

// Pinned observations (see the file comment), captured before the leader's
// per-ack bookkeeping was made linear-time.
constexpr std::uint64_t kBootstrapEvents = 1613;
constexpr std::uint64_t kBootstrapMessages = 1814;
constexpr ServerId kBootstrapLeader = 128;
constexpr FailoverPin kFailovers[] = {{127, 256, 1}, {128, 384, 1}, {127, 512, 1}};
constexpr std::uint64_t kFinalEvents = 33007;
constexpr std::uint64_t kFinalMessages = 34396;
constexpr std::uint64_t kFinalAdoptions = 1188;
constexpr LogIndex kFinalCommit = 86;

/// Configuration adoptions summed over the alive servers: every patrol
/// rearrangement that reaches a follower counts once.
std::uint64_t adoptions(const sim::SimCluster& cluster) {
  std::uint64_t sum = 0;
  for (const ServerId id : cluster.members()) {
    if (cluster.alive(id)) sum += cluster.node(id).counters().config_adoptions;
  }
  return sum;
}

TEST(SimFingerprintTest, PaperScaleEscapeFailoversAreUnchanged) {
  sim::ScenarioRunner runner(sim::presets::paper_cluster(
      kNodes, sim::presets::escape_policy(), stream_seed(kSeed, 0), kLoss));
  sim::InvariantChecker checker(runner.cluster());
  sim::SimCluster& cluster = runner.cluster();

  const ServerId first = runner.bootstrap();
  EXPECT_EQ(first, kBootstrapLeader);
  EXPECT_EQ(cluster.loop().processed(), kBootstrapEvents);
  EXPECT_EQ(cluster.network().stats().sent, kBootstrapMessages);

  const sim::SeriesOptions series;
  for (const FailoverPin& pin : kFailovers) {
    cluster.clear_event_log();
    runner.runtime().clear_markers();
    sim::FaultPlan plan;
    plan.at(0, sim::TrafficBurst{series.traffic_window, series.traffic_interval});
    plan.at(series.traffic_window, sim::CrashNode{sim::NodeRef::leader()});
    const sim::FailoverResult f = runner.run_failover_plan(plan, series.max_wait);
    runner.runtime().disarm_deferred_crash();
    const ServerId victim = runner.runtime().last_crashed();
    if (victim != kNoServer && !cluster.alive(victim)) cluster.recover(victim);
    cluster.loop().run_until(cluster.loop().now() + series.settle);
    ASSERT_TRUE(f.converged);
    EXPECT_EQ(f.new_leader, pin.winner);
    EXPECT_EQ(f.new_term, pin.term);
    EXPECT_EQ(f.campaigns, pin.campaigns);
  }

  const ServerId leader = cluster.leader();
  ASSERT_NE(leader, kNoServer);
  EXPECT_EQ(cluster.loop().processed(), kFinalEvents);
  EXPECT_EQ(cluster.network().stats().sent, kFinalMessages);
  EXPECT_EQ(adoptions(cluster), kFinalAdoptions);
  EXPECT_EQ(cluster.node(leader).commit_index(), kFinalCommit);

  checker.deep_check();
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
}

}  // namespace
}  // namespace escape
