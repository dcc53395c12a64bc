// Unit tests for the ESCAPE election policy: SCA arithmetic (Eq. 1/2),
// confClock rules, and the probing patrol function, including the paper's
// Figure 5a/5b rearrangement scenarios.
#include "core/escape_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

namespace escape::core {
namespace {

EscapeOptions test_options() {
  EscapeOptions o;
  o.base_time = from_ms(1500);
  o.gap = from_ms(500);
  return o;
}

rpc::ConfigStatus status(LogIndex idx, ConfClock clock) {
  rpc::ConfigStatus s;
  s.log_index = idx;
  s.conf_clock = clock;
  return s;
}

TEST(ScaTest, Equation1Timeouts) {
  const auto opts = test_options();
  // period = 1500 + 500 * (n - P); n = 10.
  EXPECT_EQ(election_period(opts, 10, 10), from_ms(1500));
  EXPECT_EQ(election_period(opts, 10, 2), from_ms(1500 + 500 * 8));
  EXPECT_EQ(election_period(opts, 10, 1), from_ms(1500 + 500 * 9));
}

TEST(ScaTest, PaperExampleFromSectionIVA2) {
  // "in a 10-server cluster with baseTime=100ms and k=10, S2's initial
  //  election timeout is 180 ms; S10's is the base time (100 ms)".
  EscapeOptions o;
  o.base_time = from_ms(100);
  o.gap = from_ms(10);
  EXPECT_EQ(election_period(o, 10, 2), from_ms(180));
  EXPECT_EQ(election_period(o, 10, 10), from_ms(100));
}

TEST(ScaTest, InitialConfigurationUsesServerId) {
  const auto opts = test_options();
  const auto cfg = initial_configuration(opts, 5, 3);
  EXPECT_EQ(cfg.priority, 3);
  EXPECT_EQ(cfg.conf_clock, 0);
  EXPECT_EQ(cfg.timer_period, election_period(opts, 5, 3));
}

TEST(EscapePolicyTest, CampaignTermGrowsByPriority) {
  EscapePolicy p(3, 5, test_options());
  // Eq. 2 with initial priority = id = 3.
  EXPECT_EQ(p.campaign_term(7), 10);
  EXPECT_EQ(p.campaign_term(10), 13);
}

TEST(EscapePolicyTest, TimeoutIsDeterministicFromConfig) {
  EscapePolicy p(2, 5, test_options());
  Rng rng(1);
  const auto t1 = p.next_election_timeout(rng);
  const auto t2 = p.next_election_timeout(rng);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, election_period(test_options(), 5, 2));
}

TEST(EscapePolicyTest, AdoptsOnlyStrictlyFresherConfig) {
  EscapePolicy p(2, 5, test_options());
  rpc::Configuration cfg;
  cfg.priority = 5;
  cfg.timer_period = from_ms(1500);
  cfg.conf_clock = 3;
  EXPECT_TRUE(p.on_config_received(cfg));
  EXPECT_EQ(p.current_config(), cfg);

  // Same clock: rejected (replay).
  rpc::Configuration replay = cfg;
  replay.priority = 4;
  EXPECT_FALSE(p.on_config_received(replay));
  EXPECT_EQ(p.current_config().priority, 5);

  // Older clock: rejected (reordered heartbeat).
  rpc::Configuration older = cfg;
  older.conf_clock = 2;
  EXPECT_FALSE(p.on_config_received(older));

  // Newer clock: adopted.
  rpc::Configuration newer = cfg;
  newer.conf_clock = 4;
  newer.priority = 2;
  EXPECT_TRUE(p.on_config_received(newer));
  EXPECT_EQ(p.current_config().priority, 2);
}

TEST(EscapePolicyTest, VoteRequestCarriesAdoptedClock) {
  EscapePolicy p(2, 5, test_options());
  EXPECT_EQ(p.vote_request_clock(), 0);
  rpc::Configuration cfg;
  cfg.priority = 4;
  cfg.conf_clock = 9;
  cfg.timer_period = from_ms(2000);
  p.on_config_received(cfg);
  EXPECT_EQ(p.vote_request_clock(), 9);
}

TEST(EscapePolicyTest, ConfClockVoteRule) {
  EscapePolicy p(2, 5, test_options());
  rpc::Configuration cfg;
  cfg.priority = 4;
  cfg.conf_clock = 5;
  cfg.timer_period = from_ms(2000);
  p.on_config_received(cfg);

  rpc::RequestVote rv;
  rv.conf_clock = 4;  // stale candidate
  EXPECT_FALSE(p.approve_candidate(rv));
  rv.conf_clock = 5;  // same clock: acceptable
  EXPECT_TRUE(p.approve_candidate(rv));
  rv.conf_clock = 6;  // fresher: acceptable
  EXPECT_TRUE(p.approve_candidate(rv));
}

TEST(EscapePolicyTest, VoteRuleDisabledByOption) {
  auto opts = test_options();
  opts.conf_clock_vote_rule = false;
  EscapePolicy p(2, 5, opts);
  rpc::Configuration cfg;
  cfg.priority = 4;
  cfg.conf_clock = 5;
  cfg.timer_period = from_ms(2000);
  p.on_config_received(cfg);
  rpc::RequestVote rv;
  rv.conf_clock = 0;
  EXPECT_TRUE(p.approve_candidate(rv));
}

TEST(EscapePolicyTest, RestoreKeepsScaDefaultsOnFreshDisk) {
  EscapePolicy p(3, 5, test_options());
  p.restore(rpc::Configuration{});  // zeroed persisted state
  EXPECT_EQ(p.current_config().priority, 3);
  p.restore(rpc::Configuration{.timer_period = from_ms(1700), .priority = 4, .conf_clock = 8});
  EXPECT_EQ(p.current_config().priority, 4);
  EXPECT_EQ(p.current_config().conf_clock, 8);
}

// --- probing patrol function ------------------------------------------------

struct Patrol {
  Patrol() : policy(1, 5, test_options()) { policy.on_become_leader({2, 3, 4, 5}, 10); }

  /// One heartbeat round: feed statuses, then patrol.
  void round(const std::map<ServerId, rpc::ConfigStatus>& statuses) {
    for (const auto& [id, st] : statuses) policy.on_follower_status(id, st);
    policy.begin_heartbeat_round();
  }

  Priority assigned_priority(ServerId id) { return policy.config_for(id)->priority; }

  EscapePolicy policy;
};

TEST(PpfTest, FirstRoundDistributesDistinctPriorities) {
  Patrol p;
  p.policy.begin_heartbeat_round();
  std::set<Priority> prios;
  std::set<ConfClock> clocks;
  for (ServerId f : {2u, 3u, 4u, 5u}) {
    const auto cfg = p.policy.config_for(f);
    ASSERT_TRUE(cfg.has_value());
    prios.insert(cfg->priority);
    clocks.insert(cfg->conf_clock);
    EXPECT_EQ(cfg->timer_period, election_period(test_options(), 5, cfg->priority));
  }
  // Pool is {2..5}: the leader parks at priority 1.
  EXPECT_EQ(prios, (std::set<Priority>{2, 3, 4, 5}));
  EXPECT_EQ(clocks.size(), 1u);
  EXPECT_EQ(p.policy.current_config().priority, 1);
}

TEST(PpfTest, UpToDateFollowersGetHigherPriorities) {
  // Figure 5a: S4 and S5 fall behind (beyond the lag hysteresis); their
  // high priorities move to the up-to-date servers.
  Patrol p;
  p.round({{2, status(100, 0)}, {3, status(100, 0)}, {4, status(40, 0)}, {5, status(20, 0)}});
  EXPECT_GT(p.assigned_priority(2), p.assigned_priority(4));
  EXPECT_GT(p.assigned_priority(3), p.assigned_priority(5));
  EXPECT_GT(p.assigned_priority(4), p.assigned_priority(5));
  // The most responsive follower holds the top priority (n = 5).
  EXPECT_EQ(std::max(p.assigned_priority(2), p.assigned_priority(3)), 5);
}

TEST(PpfTest, JitterWithinHysteresisKeepsAssignment) {
  // Followers within kLagThreshold of the best index are equally ranked;
  // ordinary in-flight replication jitter must not reshuffle priorities.
  Patrol p;
  p.round({{2, status(100, 0)}, {3, status(100, 0)}, {4, status(100, 0)}, {5, status(100, 0)}});
  const auto before = p.policy.assignments();
  // +-5 entries of jitter (threshold is 10): assignment must be identical.
  p.round({{2, status(105, 1)}, {3, status(102, 1)}, {4, status(98, 1)}, {5, status(101, 1)}});
  EXPECT_EQ(p.policy.assignments(), before);
}

TEST(PpfTest, PipelineBacklogDemotesCongestedFollower) {
  // Same log indices (within hysteresis) — the log-index rule alone sees no
  // laggard — but S4's replication backlog towers over everyone else's:
  // pi(P, k) must not leave a congested server holding a top priority, or
  // the next failover elects the one node that cannot absorb the load.
  Patrol p;
  p.round({{2, status(100, 0)}, {3, status(100, 0)}, {4, status(100, 0)}, {5, status(100, 0)}});
  const auto clock1 = p.policy.config_for(2)->conf_clock;
  for (ServerId f : {2u, 3u, 5u}) p.policy.on_follower_backlog(f, 2, 1);
  p.policy.on_follower_backlog(4, 300, 16);
  p.round({{2, status(200, clock1)},
           {3, status(200, clock1)},
           {4, status(195, clock1)},
           {5, status(200, clock1)}});
  EXPECT_EQ(p.assigned_priority(4), 2);  // bottom of the pool
  std::set<Priority> responsive{p.assigned_priority(2), p.assigned_priority(3),
                                p.assigned_priority(5)};
  EXPECT_EQ(responsive, (std::set<Priority>{3, 4, 5}));
}

TEST(PpfTest, UniformBacklogKeepsAssignment) {
  // The backlog rule is *relative*: an open-loop write storm loads every
  // follower equally, and symmetric pressure must not reshuffle priorities
  // (each reshuffle stales every follower's config until re-adoption).
  Patrol p;
  p.round({{2, status(100, 0)}, {3, status(100, 0)}, {4, status(100, 0)}, {5, status(100, 0)}});
  const auto before = p.policy.assignments();
  for (ServerId f : {2u, 3u, 4u, 5u}) p.policy.on_follower_backlog(f, 500, 16);
  p.round({{2, status(105, 1)}, {3, status(102, 1)}, {4, status(98, 1)}, {5, status(101, 1)}});
  EXPECT_EQ(p.policy.assignments(), before);
}

TEST(PpfTest, CrashedFollowerPriorityReassigned) {
  // Figure 5b: a crashed follower stops replying; once the cluster's log
  // advances past the hysteresis threshold, its high priority is re-issued
  // to a responsive server and its own copy goes stale.
  Patrol p;
  p.round({{2, status(10, 0)}, {3, status(10, 0)}, {4, status(10, 0)}, {5, status(10, 0)}});
  const auto clock1 = p.policy.config_for(2)->conf_clock;

  // S4 crashes: its known index freezes at 10 while the others advance.
  p.round({{2, status(30, clock1)}, {3, status(30, clock1)}, {5, status(30, clock1)}});
  const auto clock2 = p.policy.config_for(2)->conf_clock;
  EXPECT_GT(clock2, clock1);
  // Responsive followers occupy the top three priorities {5,4,3}; the
  // unresponsive S4 is pushed to the bottom of the pool (2).
  EXPECT_EQ(p.assigned_priority(4), 2);
  std::set<Priority> responsive{p.assigned_priority(2), p.assigned_priority(3),
                                p.assigned_priority(5)};
  EXPECT_EQ(responsive, (std::set<Priority>{3, 4, 5}));
}

TEST(PpfTest, ClockAdvancesOnlyOnRearrangement) {
  // The confClock stamps rearrangement generations: a round that would
  // reissue the identical assignment keeps the clock (lossy re-broadcasts
  // converge without staling everyone), while a material responsiveness
  // change bumps it.
  Patrol p;
  p.policy.begin_heartbeat_round();
  const auto c1 = p.policy.config_for(2)->conf_clock;

  // Same ranking (everyone equally synced): clock must not move.
  p.round({{2, status(5, c1)}, {3, status(5, c1)}, {4, status(5, c1)}, {5, status(5, c1)}});
  EXPECT_EQ(p.policy.config_for(2)->conf_clock, c1);

  // S5 (the current top priority) falls far behind: rearrangement.
  p.round({{2, status(50, c1)}, {3, status(50, c1)}, {4, status(50, c1)}, {5, status(5, c1)}});
  const auto c2 = p.policy.config_for(2)->conf_clock;
  EXPECT_GT(c2, c1);
  EXPECT_EQ(p.assigned_priority(5), 2);  // demoted to the bottom of the pool

  // Stable again: clock holds.
  p.round({{2, status(55, c2)}, {3, status(52, c2)}, {4, status(54, c2)}, {5, status(50, c2)}});
  EXPECT_EQ(p.policy.config_for(2)->conf_clock, c2);
}

TEST(PpfTest, ClockContinuesAcrossLeaderships) {
  // A new leader must issue clocks above anything it has ever observed, so
  // followers holding configs from the previous leader still adopt.
  EscapePolicy p(2, 5, test_options());
  rpc::Configuration cfg;
  cfg.priority = 5;
  cfg.conf_clock = 41;
  cfg.timer_period = from_ms(1500);
  p.on_config_received(cfg);  // adopted from previous leader

  p.on_become_leader({1, 3, 4, 5}, 50);
  p.begin_heartbeat_round();
  EXPECT_GT(p.config_for(1)->conf_clock, 41);
}

TEST(PpfTest, ClockContinuesFromFollowerStatuses) {
  // Even if the new leader itself was behind, statuses reveal fresher clocks
  // and the next patrol round jumps past them.
  EscapePolicy p(2, 5, test_options());
  p.on_become_leader({1, 3, 4, 5}, 50);
  p.begin_heartbeat_round();  // issues clock 1
  p.on_follower_status(3, status(5, 77));
  p.begin_heartbeat_round();
  EXPECT_GT(p.config_for(1)->conf_clock, 77);
}

TEST(PpfTest, PatrolEveryNRounds) {
  auto opts = test_options();
  opts.patrol_every = 3;
  EscapePolicy p(1, 5, opts);
  p.on_become_leader({2, 3, 4, 5}, 1);
  p.begin_heartbeat_round();
  EXPECT_FALSE(p.config_for(2).has_value());
  p.begin_heartbeat_round();
  EXPECT_FALSE(p.config_for(2).has_value());
  p.begin_heartbeat_round();
  EXPECT_TRUE(p.config_for(2).has_value());  // third round patrols
  p.begin_heartbeat_round();
  EXPECT_FALSE(p.config_for(2).has_value());
}

TEST(PpfTest, FollowerSideNeverEmitsConfigs) {
  EscapePolicy p(2, 5, test_options());
  p.begin_heartbeat_round();  // not leading
  EXPECT_FALSE(p.config_for(3).has_value());
}

TEST(PpfTest, LosingLeadershipStopsPatrol) {
  Patrol p;
  p.policy.begin_heartbeat_round();
  ASSERT_TRUE(p.policy.config_for(2).has_value());
  // Adopting a config means another server leads now. The clock must outrank
  // what this leadership (term 10) minted, i.e. come from a later term's
  // stride (see kConfClockStride).
  rpc::Configuration cfg;
  cfg.priority = 3;
  cfg.conf_clock = 11 * kConfClockStride;
  cfg.timer_period = from_ms(2500);
  p.policy.on_config_received(cfg);
  p.policy.begin_heartbeat_round();
  EXPECT_FALSE(p.policy.config_for(2).has_value());
}

// --- Z-Raft baseline ---------------------------------------------------------

TEST(ZRaftTest, FixedPrioritiesNoPatrolNoClockRule) {
  auto policy = make_zraft_policy(3, 5, test_options());
  EXPECT_EQ(policy->name(), "zraft");
  // SCA semantics retained: term growth by id, Eq. 1 timeout.
  EXPECT_EQ(policy->campaign_term(10), 13);
  Rng rng(1);
  EXPECT_EQ(policy->next_election_timeout(rng), election_period(test_options(), 5, 3));
  // No clock rule.
  rpc::RequestVote rv;
  rv.conf_clock = 0;
  EXPECT_TRUE(policy->approve_candidate(rv));
  // No patrol.
  policy->on_become_leader({1, 2, 4, 5}, 1);
  policy->begin_heartbeat_round();
  EXPECT_FALSE(policy->config_for(1).has_value());
}

TEST(EscapePolicyTest, TimeoutOverrideWins) {
  EscapePolicy p(2, 5, test_options());
  p.set_timeout_override([] { return std::optional<Duration>(from_ms(42)); });
  Rng rng(1);
  EXPECT_EQ(p.next_election_timeout(rng), from_ms(42));
  p.set_timeout_override([] { return std::optional<Duration>(); });
  EXPECT_EQ(p.next_election_timeout(rng), election_period(test_options(), 5, 2));
  p.set_timeout_override(nullptr);
  EXPECT_EQ(p.next_election_timeout(rng), election_period(test_options(), 5, 2));
}

// --- patrol deal: flat rank keys vs the map-based comparator ------------------

/// The patrol as it stood before ranks were precomputed: probes and deals in
/// std::maps, looked up inside the sort comparator, dealt into a std::map.
/// The hysteresis thresholds mirror kLagThreshold / kBacklogLagThreshold.
struct PatrolOracle {
  struct Probe {
    LogIndex log_index = 0;
    LogIndex backlog = 0;
  };
  EscapeOptions options;
  std::size_t n = 0;
  std::vector<ServerId> followers;
  std::map<ServerId, Probe> probes;
  std::map<ServerId, rpc::Configuration> assignments;
  ConfClock round_clock = 0;
  ConfClock max_clock_seen = 0;

  void become_leader(std::vector<ServerId> others, Term term) {
    followers = std::move(others);
    std::sort(followers.begin(), followers.end());
    probes.clear();
    assignments.clear();
    round_clock = std::max({round_clock, max_clock_seen, term * kConfClockStride});
    for (ServerId f : followers) probes[f];
  }

  void membership_changed(std::vector<ServerId> others, std::size_t voters) {
    n = voters;
    std::sort(others.begin(), others.end());
    if (others == followers) return;
    followers = std::move(others);
    for (auto it = probes.begin(); it != probes.end();) {
      it = std::binary_search(followers.begin(), followers.end(), it->first) ? std::next(it)
                                                                              : probes.erase(it);
    }
    for (ServerId f : followers) probes[f];
    assignments.clear();
  }

  void status(ServerId f, LogIndex index, ConfClock clock) {
    const auto it = probes.find(f);
    if (it == probes.end()) return;
    it->second.log_index = index;
    max_clock_seen = std::max(max_clock_seen, clock);
  }

  void patrol() {
    LogIndex best = 0;
    for (ServerId f : followers) best = std::max(best, probes.at(f).log_index);
    LogIndex min_backlog = 0;
    bool any = false;
    for (ServerId f : followers) {
      const LogIndex b = probes.at(f).backlog;
      if (!any || b < min_backlog) min_backlog = b;
      any = true;
    }
    const auto lagging = [&](ServerId f) {
      const Probe& p = probes.at(f);
      return best - p.log_index > 10 || p.backlog - min_backlog > 64;
    };
    const auto previous = [&](ServerId f) -> Priority {
      const auto it = assignments.find(f);
      return it == assignments.end() ? 0 : it->second.priority;
    };
    std::vector<ServerId> order = followers;
    std::sort(order.begin(), order.end(), [&](ServerId a, ServerId b) {
      const bool la = lagging(a);
      const bool lb = lagging(b);
      if (la != lb) return !la;
      if (la) {
        const auto ia = probes.at(a).log_index;
        const auto ib = probes.at(b).log_index;
        if (ia != ib) return ia > ib;
        const auto ba = probes.at(a).backlog;
        const auto bb = probes.at(b).backlog;
        if (ba != bb) return ba < bb;
      }
      const auto pa = previous(a);
      const auto pb = previous(b);
      if (pa != pb) return pa > pb;
      return a > b;
    });
    std::map<ServerId, Priority> proposed;
    Priority p = static_cast<Priority>(n);
    for (ServerId f : order) {
      if (p < 2) break;
      proposed[f] = p--;
    }
    bool changed = assignments.empty() || max_clock_seen > round_clock;
    for (const auto& [f, prio] : proposed) {
      const auto it = assignments.find(f);
      if (it == assignments.end() || it->second.priority != prio) changed = true;
    }
    if (!changed) return;
    round_clock = std::max(round_clock, max_clock_seen) + 1;
    for (const auto& [f, prio] : proposed) {
      rpc::Configuration c;
      c.priority = prio;
      c.timer_period = election_period(options, n, prio);
      c.conf_clock = round_clock;
      assignments[f] = c;
    }
    max_clock_seen = round_clock;
  }
};

TEST(PpfTest, FlatRankDealMatchesMapComparator) {
  std::mt19937_64 rng(7);
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  for (const std::size_t n : {std::size_t{3}, std::size_t{8}, std::size_t{128}}) {
    for (int trial = 0; trial < 20; ++trial) {
      EscapePolicy policy(1, n, test_options());
      PatrolOracle oracle;
      oracle.options = test_options();
      oracle.n = n;
      std::vector<ServerId> others;
      for (ServerId id = 2; id <= n; ++id) others.push_back(id);
      const Term term = pick(1, 5);
      policy.on_become_leader(others, term);
      oracle.become_leader(others, term);
      if (trial % 4 == 3) {
        // The leader is leaving the voter set: it patrols all n voters and
        // the lowest-ranked one keeps its standing deal.
        others.push_back(static_cast<ServerId>(n + 1));
        policy.on_membership_changed(others, n);
        oracle.membership_changed(others, n);
      }
      LogIndex frontier = 100;
      for (int round = 0; round < 30; ++round) {
        frontier += pick(0, 8);
        for (const ServerId f : others) {
          if (pick(0, 3) == 0) continue;  // this round's reply was lost
          // Mostly near the frontier (ties broken by the standing deal),
          // sometimes a material laggard; clocks occasionally run ahead.
          rpc::ConfigStatus st;
          st.log_index = frontier - (pick(0, 4) == 0 ? pick(11, 60) : pick(0, 10));
          st.conf_clock = pick(0, 40) == 0 ? policy.issued_clock() + pick(1, 3) : 0;
          policy.on_follower_status(f, st);
          oracle.status(f, st.log_index, st.conf_clock);
          const LogIndex backlog = pick(0, 3) == 0 ? pick(0, 150) : pick(0, 20);
          policy.on_follower_backlog(f, backlog, 0);
          oracle.probes.at(f).backlog = backlog;
        }
        policy.begin_heartbeat_round();
        oracle.patrol();
        ASSERT_EQ(policy.assignments(), oracle.assignments)
            << "n=" << n << " trial " << trial << " round " << round;
        ASSERT_EQ(policy.issued_clock(), oracle.round_clock)
            << "n=" << n << " trial " << trial << " round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace escape::core
