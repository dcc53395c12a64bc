// Direct unit tests of the consensus core: a single RaftNode driven by
// hand-crafted messages and ticks, no simulator.
#include "raft/raft_node.h"

#include "test_node_harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>

#include "storage/state_store.h"
#include "storage/wal.h"

namespace escape::raft {

/// Reaches the protocol checks that no well-formed input sequence can
/// violate, so a test can show that each one throws.
struct RaftNodeTestAccess {
  static void step_down_to(RaftNode& n, Term term) {
    n.become_follower(term, kNoServer, /*now=*/0, /*reset_timer=*/false);
  }
  static void become_leader(RaftNode& n) { n.become_leader(/*now=*/0); }
  static void grant_read(RaftNode& n, LogIndex read_index) {
    n.grant_read(/*id=*/1, read_index, /*via_lease=*/false, /*now=*/0);
  }
  static void apply_through(RaftNode& n, LogIndex index) {
    n.commit_index_ = index;
    n.apply_committed(/*now=*/0);
  }
};

namespace {

constexpr Duration kMin = from_ms(100);
constexpr Duration kMax = from_ms(100);  // deterministic timeout for unit tests

struct NodeFixture {
  explicit NodeFixture(ServerId id = 1, std::size_t n = 3,
                       std::vector<rpc::LogEntry> recovered = {}, NodeOptions opts = {}) {
    std::vector<ServerId> members;
    for (ServerId s = 1; s <= n; ++s) members.push_back(s);
    // A recovered log always originates from the WAL; keep them consistent.
    for (const auto& e : recovered) wal.append(e);
    node = std::make_unique<DrivenNode>(
        id, members, std::make_unique<RaftRandomizedPolicy>(kMin, kMax), store, wal, Rng(7),
        opts, std::move(recovered));
  }

  /// Advances virtual time past the election timeout and ticks.
  void expire_election_timer() {
    now += kMax + 1;
    node->on_tick(now);
  }

  void deliver(ServerId from, rpc::Message m) {
    node->on_message({from, node->id(), std::move(m)}, now);
  }

  rpc::AppendEntries make_heartbeat(Term term, ServerId leader = 2) {
    rpc::AppendEntries ae;
    ae.term = term;
    ae.leader_id = leader;
    ae.prev_log_index = 0;
    ae.prev_log_term = 0;
    ae.leader_commit = 0;
    return ae;
  }

  storage::MemoryStateStore store;
  storage::MemoryWal wal;
  std::unique_ptr<DrivenNode> node;
  TimePoint now = 0;
};

TEST(RaftNodeTest, StartsAsFollower) {
  NodeFixture f;
  f.node->start(0);
  EXPECT_EQ(f.node->role(), Role::kFollower);
  EXPECT_EQ(f.node->term(), 0);
  EXPECT_EQ(f.node->leader_hint(), kNoServer);
  EXPECT_LE(f.node->next_deadline(), kMax);
}

TEST(RaftNodeTest, RejectsDoubleStart) {
  NodeFixture f;
  f.node->start(0);
  EXPECT_THROW(f.node->start(0), std::logic_error);
}

TEST(RaftNodeTest, RejectsInvalidConstruction) {
  storage::MemoryStateStore store;
  storage::MemoryWal wal;
  // Member list missing self.
  EXPECT_THROW(DrivenNode(1, {2, 3}, std::make_unique<RaftRandomizedPolicy>(kMin, kMax), store,
                        wal, Rng(1)),
               std::invalid_argument);
  // Reserved id 0.
  EXPECT_THROW(DrivenNode(0, {0, 1}, std::make_unique<RaftRandomizedPolicy>(kMin, kMax), store,
                        wal, Rng(1)),
               std::invalid_argument);
  // Null policy.
  EXPECT_THROW(DrivenNode(1, {1, 2}, nullptr, store, wal, Rng(1)), std::invalid_argument);
}

TEST(RaftNodeTest, TimeoutStartsCampaign) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  EXPECT_EQ(f.node->role(), Role::kCandidate);
  EXPECT_EQ(f.node->term(), 1);  // Raft: term + 1
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 2u);  // RequestVote to both peers
  for (const auto& env : out) {
    ASSERT_TRUE(std::holds_alternative<rpc::RequestVote>(env.message));
    const auto& rv = std::get<rpc::RequestVote>(env.message);
    EXPECT_EQ(rv.term, 1);
    EXPECT_EQ(rv.candidate_id, 1u);
  }
}

TEST(RaftNodeTest, PersistsTermAndVoteOnCampaign) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  const auto persisted = f.store.load();
  ASSERT_TRUE(persisted.has_value());
  EXPECT_EQ(persisted->current_term, 1);
  EXPECT_EQ(persisted->voted_for, 1u);  // voted for self
}

TEST(RaftNodeTest, WinsElectionWithQuorum) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  rpc::RequestVoteReply reply;
  reply.term = 1;
  reply.vote_granted = true;
  reply.voter_id = 2;
  f.deliver(2, reply);
  EXPECT_EQ(f.node->role(), Role::kLeader);  // self + S2 = 2 of 3
  EXPECT_EQ(f.node->leader_hint(), 1u);
  // Winning triggers an immediate heartbeat round.
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 2u);
  for (const auto& env : out) {
    EXPECT_TRUE(rpc::is_heartbeat(env.message));
  }
}

TEST(RaftNodeTest, DuplicateVotesDoNotDoubleCount) {
  NodeFixture f(1, 5);
  f.node->start(0);
  f.expire_election_timer();
  rpc::RequestVoteReply reply;
  reply.term = 1;
  reply.vote_granted = true;
  reply.voter_id = 2;
  f.deliver(2, reply);
  f.deliver(2, reply);  // duplicate from same voter
  EXPECT_EQ(f.node->role(), Role::kCandidate);  // 2 votes of 5 -> quorum is 3
  reply.voter_id = 3;
  f.deliver(3, reply);
  EXPECT_EQ(f.node->role(), Role::kLeader);
}

TEST(RaftNodeTest, DeniedVotesIgnored) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  rpc::RequestVoteReply reply;
  reply.term = 1;
  reply.vote_granted = false;
  reply.voter_id = 2;
  f.deliver(2, reply);
  EXPECT_EQ(f.node->role(), Role::kCandidate);
}

TEST(RaftNodeTest, CandidateRetriesOnNextTimeout) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  EXPECT_EQ(f.node->term(), 1);
  f.expire_election_timer();
  EXPECT_EQ(f.node->role(), Role::kCandidate);
  EXPECT_EQ(f.node->term(), 2);
  EXPECT_EQ(f.node->counters().campaigns_started, 2u);
}

TEST(RaftNodeTest, GrantsVoteOncePerTerm) {
  NodeFixture f;
  f.node->start(0);
  rpc::RequestVote rv;
  rv.term = 1;
  rv.candidate_id = 2;
  f.deliver(2, rv);
  auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::get<rpc::RequestVoteReply>(out[0].message).vote_granted);

  rv.candidate_id = 3;  // second candidate, same term
  f.deliver(3, rv);
  out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(std::get<rpc::RequestVoteReply>(out[0].message).vote_granted);
}

TEST(RaftNodeTest, RegrantsSameCandidateIdempotently) {
  NodeFixture f;
  f.node->start(0);
  rpc::RequestVote rv;
  rv.term = 1;
  rv.candidate_id = 2;
  f.deliver(2, rv);
  f.node->take_outbox();
  f.deliver(2, rv);  // retransmission
  auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::get<rpc::RequestVoteReply>(out[0].message).vote_granted);
}

TEST(RaftNodeTest, RejectsStaleTermCandidate) {
  NodeFixture f;
  f.node->start(0);
  f.deliver(2, f.make_heartbeat(5));  // adopt term 5
  f.node->take_outbox();
  rpc::RequestVote rv;
  rv.term = 3;
  rv.candidate_id = 3;
  f.deliver(3, rv);
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  const auto& reply = std::get<rpc::RequestVoteReply>(out[0].message);
  EXPECT_FALSE(reply.vote_granted);
  EXPECT_EQ(reply.term, 5);  // candidate learns the newer term
}

TEST(RaftNodeTest, RejectsCandidateWithStaleLog) {
  rpc::LogEntry e1{.term = 2, .index = 1, .command = {}};
  NodeFixture f(1, 3, {e1});
  f.node->start(0);
  // A node restarting with prior state refuses votes for one guard window
  // (it may have acked a lease round before dying); step past it — this
  // test is about the log up-to-date rule.
  f.now += kMax;
  rpc::RequestVote rv;
  rv.term = 3;
  rv.candidate_id = 2;
  rv.last_log_index = 5;
  rv.last_log_term = 1;  // lower last term than ours (2)
  f.deliver(2, rv);
  const auto out = f.node->take_outbox();
  const auto& reply = std::get<rpc::RequestVoteReply>(out[0].message);
  EXPECT_FALSE(reply.vote_granted);
  EXPECT_EQ(f.node->term(), 3);  // term still adopted (Eq. 3 max-merge)
}

TEST(RaftNodeTest, HigherTermMessageForcesStepDown) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();  // candidate in term 1
  f.node->take_outbox();
  f.deliver(2, f.make_heartbeat(4));
  EXPECT_EQ(f.node->role(), Role::kFollower);
  EXPECT_EQ(f.node->term(), 4);
  EXPECT_EQ(f.node->leader_hint(), 2u);
}

TEST(RaftNodeTest, CandidateStepsDownOnEqualTermLeader) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();  // candidate, term 1
  f.node->take_outbox();
  f.deliver(2, f.make_heartbeat(1));
  EXPECT_EQ(f.node->role(), Role::kFollower);
  EXPECT_EQ(f.node->term(), 1);
}

TEST(RaftNodeTest, StaleHeartbeatRejected) {
  NodeFixture f;
  f.node->start(0);
  f.deliver(2, f.make_heartbeat(3));
  f.node->take_outbox();
  f.deliver(3, f.make_heartbeat(1, 3));  // stale leader
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  const auto& reply = std::get<rpc::AppendEntriesReply>(out[0].message);
  EXPECT_FALSE(reply.success);
  EXPECT_EQ(reply.term, 3);
}

TEST(RaftNodeTest, AppendEntriesConsistencyCheck) {
  NodeFixture f;
  f.node->start(0);
  rpc::AppendEntries ae = f.make_heartbeat(1);
  ae.prev_log_index = 5;  // we have nothing at index 5
  ae.prev_log_term = 1;
  f.deliver(2, ae);
  const auto out = f.node->take_outbox();
  const auto& reply = std::get<rpc::AppendEntriesReply>(out[0].message);
  EXPECT_FALSE(reply.success);
  EXPECT_EQ(reply.conflict_index, 1);  // log is empty: back up to index 1
  EXPECT_EQ(reply.conflict_term, 0);
}

TEST(RaftNodeTest, AppendsEntriesAndAdvancesCommit) {
  NodeFixture f;
  f.node->start(0);
  rpc::AppendEntries ae = f.make_heartbeat(1);
  ae.entries.push_back({.term = 1, .index = 1, .command = {42}});
  ae.entries.push_back({.term = 1, .index = 2, .command = {43}});
  ae.leader_commit = 1;
  f.deliver(2, ae);
  EXPECT_EQ(f.node->log().last_index(), 2);
  EXPECT_EQ(f.node->commit_index(), 1);
  const auto committed = f.node->take_committed();
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed[0].command, std::vector<std::uint8_t>{42});
  const auto out = f.node->take_outbox();
  const auto& reply = std::get<rpc::AppendEntriesReply>(out[0].message);
  EXPECT_TRUE(reply.success);
  EXPECT_EQ(reply.match_index, 2);
  EXPECT_EQ(reply.status.log_index, 2);
}

TEST(RaftNodeTest, ConflictingSuffixTruncated) {
  std::vector<rpc::LogEntry> recovered{
      {.term = 1, .index = 1, .command = {1}},
      {.term = 2, .index = 2, .command = {2}},
      {.term = 2, .index = 3, .command = {3}},
  };
  NodeFixture f(1, 3, recovered);
  f.node->start(0);
  rpc::AppendEntries ae = f.make_heartbeat(3);
  ae.prev_log_index = 1;
  ae.prev_log_term = 1;
  ae.entries.push_back({.term = 3, .index = 2, .command = {9}});
  f.deliver(2, ae);
  EXPECT_EQ(f.node->log().last_index(), 2);  // index 3 truncated away
  EXPECT_EQ(f.node->log().term_at(2), Term{3});
  // WAL saw the truncation too.
  ASSERT_EQ(f.wal.entries().size(), 2u);
  EXPECT_EQ(f.wal.entries()[1].term, 3);
}

TEST(RaftNodeTest, DuplicateAppendIsIdempotent) {
  NodeFixture f;
  f.node->start(0);
  rpc::AppendEntries ae = f.make_heartbeat(1);
  ae.entries.push_back({.term = 1, .index = 1, .command = {42}});
  f.deliver(2, ae);
  f.deliver(2, ae);  // network duplicate
  EXPECT_EQ(f.node->log().last_index(), 1);
  EXPECT_EQ(f.wal.entries().size(), 1u);
}

TEST(RaftNodeTest, ConflictTermHintPointsAtFirstIndexOfTerm) {
  std::vector<rpc::LogEntry> recovered{
      {.term = 1, .index = 1, .command = {}},
      {.term = 2, .index = 2, .command = {}},
      {.term = 2, .index = 3, .command = {}},
  };
  NodeFixture f(1, 3, recovered);
  f.node->start(0);
  rpc::AppendEntries ae = f.make_heartbeat(3);
  ae.prev_log_index = 3;
  ae.prev_log_term = 3;  // we have term 2 there
  f.deliver(2, ae);
  const auto out = f.node->take_outbox();
  const auto& reply = std::get<rpc::AppendEntriesReply>(out[0].message);
  EXPECT_FALSE(reply.success);
  EXPECT_EQ(reply.conflict_term, 2);
  EXPECT_EQ(reply.conflict_index, 2);  // first index of term 2
}

TEST(RaftNodeTest, LeaderReplicatesAndCommits) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  rpc::RequestVoteReply vote{.term = 1, .vote_granted = true, .voter_id = 2};
  f.deliver(2, vote);
  ASSERT_EQ(f.node->role(), Role::kLeader);
  f.node->take_outbox();

  const auto idx = f.node->submit({7, 7}, f.now);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 1);
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 2u);  // eager replication to both peers
  for (const auto& env : out) {
    const auto& ae = std::get<rpc::AppendEntries>(env.message);
    ASSERT_EQ(ae.entries.size(), 1u);
    EXPECT_EQ(ae.entries[0].index, 1);
  }

  rpc::AppendEntriesReply ok{.term = 1, .success = true, .from = 2, .match_index = 1};
  ok.status.log_index = 1;
  f.deliver(2, ok);
  EXPECT_EQ(f.node->commit_index(), 1);  // self + S2 = quorum
  EXPECT_EQ(f.node->take_committed().size(), 1u);
}

TEST(RaftNodeTest, LeaderDoesNotCommitPriorTermByCounting) {
  // Raft §5.4.2 scenario: an entry from an older term must not commit by
  // replica counting alone.
  std::vector<rpc::LogEntry> recovered{{.term = 1, .index = 1, .command = {1}}};
  NodeFixture f(1, 3, recovered);
  f.node->start(0);
  f.deliver(2, f.make_heartbeat(1));  // sync term 1
  f.node->take_outbox();
  f.expire_election_timer();  // campaign in term 2
  f.node->take_outbox();
  rpc::RequestVoteReply vote{.term = 2, .vote_granted = true, .voter_id = 2};
  f.deliver(2, vote);
  ASSERT_EQ(f.node->role(), Role::kLeader);
  f.node->take_outbox();

  // S2 acks the old entry; it must NOT commit (term 1 < current term 2).
  rpc::AppendEntriesReply ok{.term = 2, .success = true, .from = 2, .match_index = 1};
  ok.status.log_index = 1;
  f.deliver(2, ok);
  EXPECT_EQ(f.node->commit_index(), 0);

  // A current-term entry replicated to quorum commits everything below it.
  const auto idx = f.node->submit({2}, f.now);
  ASSERT_TRUE(idx.has_value());
  f.node->take_outbox();
  rpc::AppendEntriesReply ok2{.term = 2, .success = true, .from = 2, .match_index = 2};
  ok2.status.log_index = 2;
  f.deliver(2, ok2);
  EXPECT_EQ(f.node->commit_index(), 2);
  EXPECT_EQ(f.node->take_committed().size(), 2u);
}

TEST(RaftNodeTest, LeaderBacksUpNextIndexOnConflict) {
  // Leader restarts with a 3-entry log, wins term 2; a follower holding only
  // one entry NACKs the first probe with conflict_index = 2.
  std::vector<rpc::LogEntry> recovered{
      {.term = 1, .index = 1, .command = {1}},
      {.term = 1, .index = 2, .command = {2}},
      {.term = 1, .index = 3, .command = {3}},
  };
  NodeFixture f(1, 3, recovered);
  f.node->start(0);
  f.deliver(2, f.make_heartbeat(1));  // learn term 1 first
  f.node->take_outbox();
  f.expire_election_timer();  // campaign in term 2
  f.node->take_outbox();
  f.deliver(2, rpc::RequestVoteReply{.term = 2, .vote_granted = true, .voter_id = 2});
  ASSERT_EQ(f.node->role(), Role::kLeader);
  f.node->take_outbox();  // initial heartbeat probes with prev=3

  rpc::AppendEntriesReply nack{.term = 2, .success = false, .from = 2};
  nack.conflict_index = 2;  // follower's log has exactly one entry
  nack.conflict_term = 0;
  f.deliver(2, nack);
  const auto out = f.node->take_outbox();
  ASSERT_EQ(out.size(), 1u);
  const auto& retry = std::get<rpc::AppendEntries>(out[0].message);
  EXPECT_EQ(retry.prev_log_index, 1);  // next_index backed up to 2
  EXPECT_EQ(retry.entries.size(), 2u);
}

TEST(RaftNodeTest, SubmitOnFollowerRejected) {
  NodeFixture f;
  f.node->start(0);
  EXPECT_FALSE(f.node->submit({1}, f.now).has_value());
}

TEST(RaftNodeTest, SingleNodeClusterLeadsImmediately) {
  NodeFixture f(1, 1);
  f.node->start(0);
  f.expire_election_timer();
  EXPECT_EQ(f.node->role(), Role::kLeader);
  const auto idx = f.node->submit({1}, f.now);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(f.node->commit_index(), 1);  // quorum of 1
}

TEST(RaftNodeTest, RestartRestoresPersistentState) {
  NodeFixture f;
  f.node->start(0);
  f.expire_election_timer();  // term 1, voted for self
  f.node->take_outbox();

  // "Restart": new node instance over the same store/WAL.
  std::vector<ServerId> members{1, 2, 3};
  DrivenNode restarted(1, members, std::make_unique<RaftRandomizedPolicy>(kMin, kMax), f.store,
                     f.wal, Rng(8), {}, f.wal.entries());
  restarted.start(0);
  EXPECT_EQ(restarted.term(), 1);
  EXPECT_EQ(restarted.role(), Role::kFollower);
  // It must refuse to vote for another candidate in term 1.
  rpc::RequestVote rv;
  rv.term = 1;
  rv.candidate_id = 3;
  restarted.on_message({3, 1, rv}, 0);
  const auto out = restarted.take_outbox();
  EXPECT_FALSE(std::get<rpc::RequestVoteReply>(out[0].message).vote_granted);
}

TEST(RaftNodeTest, LeaderHeartbeatsOnInterval) {
  NodeOptions opts;
  opts.heartbeat_interval = from_ms(50);
  NodeFixture f(1, 3, {}, opts);
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  f.deliver(2, rpc::RequestVoteReply{.term = 1, .vote_granted = true, .voter_id = 2});
  f.node->take_outbox();  // initial heartbeat round

  f.now += from_ms(50);
  f.node->on_tick(f.now);
  const auto out = f.node->take_outbox();
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(f.node->counters().heartbeat_rounds, 2u);
}

TEST(RaftNodeTest, NoopCommittedOnElectionWhenEnabled) {
  NodeOptions opts;
  opts.commit_noop_on_elect = true;
  NodeFixture f(1, 3, {}, opts);
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  f.deliver(2, rpc::RequestVoteReply{.term = 1, .vote_granted = true, .voter_id = 2});
  EXPECT_EQ(f.node->log().last_index(), 1);  // the no-op barrier entry
  EXPECT_EQ(f.node->log().term_at(1), Term{1});
}

TEST(RaftNodeTest, EventHookSeesTransitions) {
  NodeFixture f;
  std::vector<NodeEvent::Kind> kinds;
  f.node->set_event_hook([&](const NodeEvent& e) { kinds.push_back(e.kind); });
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  f.deliver(2, rpc::RequestVoteReply{.term = 1, .vote_granted = true, .voter_id = 2});
  ASSERT_GE(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], NodeEvent::Kind::kCampaignStarted);
  EXPECT_EQ(kinds[1], NodeEvent::Kind::kBecameLeader);
}

TEST(RaftNodeTest, GrantingVoteResetsElectionTimer) {
  NodeFixture f;
  f.node->start(0);
  const auto deadline_before = f.node->next_deadline();
  f.now = deadline_before - 1;
  rpc::RequestVote rv;
  rv.term = 1;
  rv.candidate_id = 2;
  f.deliver(2, rv);
  EXPECT_GT(f.node->next_deadline(), deadline_before);
}

TEST(RaftNodeTest, DeniedVoteDoesNotResetElectionTimer) {
  NodeFixture f;
  f.node->start(0);
  // Vote for S2 first.
  rpc::RequestVote rv;
  rv.term = 1;
  rv.candidate_id = 2;
  f.deliver(2, rv);
  const auto deadline = f.node->next_deadline();
  // S3 begs for a vote in the same term; denial must not defer our timer.
  rv.candidate_id = 3;
  f.deliver(3, rv);
  EXPECT_EQ(f.node->next_deadline(), deadline);
}

// --- batched + pipelined replication ----------------------------------------

/// Elects fixture node 1 leader of a 3-node cluster (vote from S2).
void elect_leader(NodeFixture& f) {
  f.node->start(0);
  f.expire_election_timer();
  f.node->take_outbox();
  f.deliver(2, rpc::RequestVoteReply{.term = 1, .vote_granted = true, .voter_id = 2});
  ASSERT_EQ(f.node->role(), Role::kLeader);
  f.node->take_outbox();
}

/// AppendEntries messages to `to`, in send order.
std::vector<rpc::AppendEntries> appends_to(std::vector<rpc::Envelope> out, ServerId to) {
  std::vector<rpc::AppendEntries> result;
  for (const auto& env : out) {
    if (env.to != to) continue;
    if (const auto* ae = std::get_if<rpc::AppendEntries>(&env.message)) result.push_back(*ae);
  }
  return result;
}

TEST(RaftPipelineTest, WindowCapsInflightBatchesPerFollower) {
  NodeOptions opts;
  opts.max_entries_per_rpc = 1;
  opts.max_inflight_msgs = 3;
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);

  // Five submissions, window of three: the optimistic next advances per
  // send, so each peer sees exactly entries 1..3 and the rest queue.
  for (int i = 0; i < 5; ++i) f.node->submit({static_cast<std::uint8_t>(i)}, f.now);
  for (ServerId peer : {ServerId{2}, ServerId{3}}) {
    const auto* pr = f.node->core().progress(peer);
    ASSERT_NE(pr, nullptr);
    EXPECT_EQ(pr->next, 4u);
    EXPECT_EQ(pr->inflight, 3u);
  }
  auto out = f.node->take_outbox();
  for (ServerId peer : {ServerId{2}, ServerId{3}}) {
    const auto batches = appends_to(out, peer);
    ASSERT_EQ(batches.size(), 3u);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      ASSERT_EQ(batches[i].entries.size(), 1u);
      EXPECT_EQ(batches[i].entries[0].index, i + 1);
    }
  }
  EXPECT_EQ(f.node->counters().inflight_depth.max, 3u);

  // One ack frees one slot; the backlog refills it immediately.
  rpc::AppendEntriesReply ok{.term = 1, .success = true, .from = 2, .match_index = 1};
  ok.status.log_index = 1;
  f.deliver(2, ok);
  const auto refill = appends_to(f.node->take_outbox(), 2);
  ASSERT_EQ(refill.size(), 1u);
  ASSERT_EQ(refill[0].entries.size(), 1u);
  EXPECT_EQ(refill[0].entries[0].index, 4u);
}

TEST(RaftPipelineTest, ByteBudgetTrimsBatch) {
  NodeOptions opts;
  opts.max_entries_per_rpc = 128;
  // Framing estimate is 24 B/entry; 8 B payloads make 32 B each, so a 64 B
  // budget carries exactly two entries per message.
  opts.max_bytes_per_msg = 64;
  opts.max_inflight_msgs = 1;
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);

  f.node->submit(std::vector<std::uint8_t>(8, 1), f.now);  // ships alone, fills the window
  for (int i = 2; i <= 5; ++i) {
    f.node->submit(std::vector<std::uint8_t>(8, static_cast<std::uint8_t>(i)), f.now);
  }
  f.node->take_outbox();

  rpc::AppendEntriesReply ok{.term = 1, .success = true, .from = 2, .match_index = 1};
  ok.status.log_index = 1;
  f.deliver(2, ok);
  const auto refill = appends_to(f.node->take_outbox(), 2);
  ASSERT_EQ(refill.size(), 1u);
  ASSERT_EQ(refill[0].entries.size(), 2u);  // budget, not the entry cap, trims
  EXPECT_EQ(refill[0].entries[0].index, 2u);
  EXPECT_EQ(refill[0].entries[1].index, 3u);
}

TEST(RaftPipelineTest, OversizedEntryStillShipsAlone) {
  NodeOptions opts;
  opts.max_bytes_per_msg = 8;  // smaller than any framed entry
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);
  f.node->submit(std::vector<std::uint8_t>(64, 9), f.now);
  const auto out = appends_to(f.node->take_outbox(), 2);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].entries.size(), 1u);  // a batch always carries >= 1 entry
}

TEST(RaftPipelineTest, RejectionEntersProbeModeUntilAck) {
  NodeOptions opts;
  opts.max_entries_per_rpc = 1;
  opts.max_inflight_msgs = 4;
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);
  for (int i = 0; i < 3; ++i) f.node->submit({static_cast<std::uint8_t>(i)}, f.now);
  f.node->take_outbox();

  // S2 lost the pipelined batches and rejects from scratch: the leader
  // collapses the window and walks back to the conflict hint.
  rpc::AppendEntriesReply nack{.term = 1, .success = false, .from = 2};
  nack.conflict_index = 1;
  nack.conflict_term = 0;
  f.deliver(2, nack);
  const auto* pr = f.node->core().progress(2);
  ASSERT_NE(pr, nullptr);
  EXPECT_TRUE(pr->probing);
  const auto probes = appends_to(f.node->take_outbox(), 2);
  ASSERT_EQ(probes.size(), 1u);  // single probe outstanding, not a new pipeline
  EXPECT_EQ(probes[0].prev_log_index, 0u);

  // While probing, fresh submissions must not reopen the pipeline to S2.
  f.node->submit({42}, f.now);
  EXPECT_TRUE(appends_to(f.node->take_outbox(), 2).empty());

  // The probe's ack clears probe mode and resumes pipelined catch-up.
  rpc::AppendEntriesReply ok{.term = 1, .success = true, .from = 2, .match_index = 1};
  ok.status.log_index = 1;
  f.deliver(2, ok);
  EXPECT_FALSE(f.node->core().progress(2)->probing);
  EXPECT_FALSE(appends_to(f.node->take_outbox(), 2).empty());
}

TEST(RaftPipelineTest, StaleRejectionBehindMatchIgnored) {
  NodeOptions opts;
  opts.max_entries_per_rpc = 1;
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);
  for (int i = 0; i < 2; ++i) f.node->submit({static_cast<std::uint8_t>(i)}, f.now);
  f.node->take_outbox();

  rpc::AppendEntriesReply ok{.term = 1, .success = true, .from = 2, .match_index = 2};
  ok.status.log_index = 2;
  f.deliver(2, ok);
  f.node->take_outbox();
  const auto next_before = f.node->core().progress(2)->next;

  // A reordered rejection of an already-acked prefix must not drag the
  // cursor back below match (it would re-ship acknowledged entries forever).
  rpc::AppendEntriesReply stale{.term = 1, .success = false, .from = 2};
  stale.conflict_index = 1;
  stale.conflict_term = 0;
  f.deliver(2, stale);
  EXPECT_EQ(f.node->core().progress(2)->next, next_before);
  EXPECT_FALSE(f.node->core().progress(2)->probing);
  EXPECT_TRUE(appends_to(f.node->take_outbox(), 2).empty());
}

TEST(RaftPipelineTest, HeartbeatRoundReopensStalledWindow) {
  NodeOptions opts;
  opts.max_entries_per_rpc = 1;
  opts.max_inflight_msgs = 1;
  NodeFixture f(1, 3, {}, opts);
  elect_leader(f);
  f.node->submit({1}, f.now);  // fills the single-slot window
  f.node->submit({2}, f.now);  // queued behind it
  f.node->take_outbox();

  // Both in-flight sends were lost. The heartbeat round is the liveness
  // valve: it resets the per-peer window, so the round itself re-ships from
  // the current cursor instead of deadlocking on acks that never come.
  f.now += opts.heartbeat_interval + 1;
  f.node->on_tick(f.now);
  const auto resent = appends_to(f.node->take_outbox(), 2);
  ASSERT_FALSE(resent.empty());
}

TEST(RaftPipelineTest, GroupCommitCountersTrackSyncs) {
  NodeFixture f;
  elect_leader(f);
  const auto before = f.node->counters().wal_group_syncs;
  for (int i = 0; i < 3; ++i) f.node->submit({static_cast<std::uint8_t>(i)}, f.now);
  const auto& c = f.node->counters();
  EXPECT_GE(c.wal_group_syncs, before + 3);  // one sync per batch that carried log ops
  EXPECT_EQ(c.wal_records_per_sync.count, c.wal_group_syncs);
  EXPECT_GE(c.wal_records_per_sync.sum, 3u);
  EXPECT_GT(c.append_batch_entries.count, 0u);
}

TEST(RaftPipelineTest, PowHistogramBucketsByBitWidth) {
  PowHistogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull, 1024ull}) h.record(v);
  EXPECT_EQ(h.count, 8u);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_EQ(h.buckets[0], 1u);  // 0
  EXPECT_EQ(h.buckets[1], 1u);  // 1
  EXPECT_EQ(h.buckets[2], 2u);  // 2-3
  EXPECT_EQ(h.buckets[3], 2u);  // 4-7
  EXPECT_EQ(h.buckets[4], 1u);  // 8-15
  EXPECT_DOUBLE_EQ(h.mean(), (0 + 1 + 2 + 3 + 4 + 7 + 8 + 1024) / 8.0);
}

// --- always-on protocol checks ---------------------------------------------
// These were asserts, compiled out of the default (RelWithDebInfo, NDEBUG)
// build that every simulator sweep and fuzz run uses. Each must now throw
// std::logic_error whatever the build type.

RaftNode bare_node(Bootstrap boot = {}) {
  return RaftNode(1, std::vector<ServerId>{1, 2, 3},
                  std::make_unique<RaftRandomizedPolicy>(kMin, kMax), Rng(7), NodeOptions{},
                  std::move(boot));
}

TEST(RaftNodeChecksTest, EveryInputRequiresStart) {
  RaftNode node = bare_node();
  rpc::AppendEntries ae;
  ae.term = 1;
  ae.leader_id = 2;
  EXPECT_THROW(node.step({2, 1, ae}, 0), std::logic_error);
  EXPECT_THROW(node.tick(0), std::logic_error);
  EXPECT_THROW(node.submit({1}, 0), std::logic_error);
  EXPECT_THROW(node.submit_read(0), std::logic_error);
  EXPECT_THROW(node.propose_conf_change({rpc::ConfChangeOp::kAddLearner, 4}, 0),
               std::logic_error);
  EXPECT_THROW(node.compact(0, {}, 0), std::logic_error);
}

TEST(RaftNodeChecksTest, StepDownNeverLowersTheTerm) {
  Bootstrap boot;
  boot.hard_state = HardState{5, kNoServer, {}};
  RaftNode node = bare_node(std::move(boot));
  node.start(0);
  EXPECT_NO_THROW(RaftNodeTestAccess::step_down_to(node, 5));
  EXPECT_THROW(RaftNodeTestAccess::step_down_to(node, 4), std::logic_error);
  EXPECT_EQ(node.term(), 5);
}

TEST(RaftNodeChecksTest, OnlyACandidateBecomesLeader) {
  RaftNode node = bare_node();
  node.start(0);
  EXPECT_THROW(RaftNodeTestAccess::become_leader(node), std::logic_error);
  EXPECT_EQ(node.role(), Role::kFollower);
}

TEST(RaftNodeChecksTest, ReadsAreNeverGrantedPastTheApplyCursor) {
  RaftNode node = bare_node();
  node.start(0);
  EXPECT_THROW(RaftNodeTestAccess::grant_read(node, node.last_applied() + 1), std::logic_error);
}

TEST(RaftNodeChecksTest, CommittingAMissingEntryThrows) {
  RaftNode node = bare_node();
  node.start(0);
  EXPECT_THROW(RaftNodeTestAccess::apply_through(node, node.log().last_index() + 1),
               std::logic_error);
}

// --- commit rule: single quorum pass vs the per-index scan ---------------------

/// The commit rule as it stood before the single-pass quorum: walk down from
/// `last`, stop at the first entry of an older term, and commit the first
/// index a majority of every voter set holds (self always counts).
LogIndex per_index_scan(const rpc::Membership& m, ServerId self,
                        const std::map<ServerId, LogIndex>& match, const Log& log,
                        LogIndex last, LogIndex commit, Term term) {
  const auto replicated = [&](const std::vector<ServerId>& set, LogIndex n) {
    std::size_t replicas = 0;
    for (const ServerId s : set) {
      const auto it = match.find(s);
      if (s == self || (it != match.end() && it->second >= n)) ++replicas;
    }
    return replicas >= set.size() / 2 + 1;
  };
  for (LogIndex n = last; n > commit; --n) {
    const auto t = log.term_at(n);
    if (!t || *t != term) break;
    if (!m.voters.empty() && replicated(m.voters, n) &&
        (!m.joint() || replicated(m.old_voters, n))) {
      return n;
    }
  }
  return commit;
}

TEST(RaftCommitRuleTest, SingleQuorumPassMatchesPerIndexScan) {
  std::mt19937_64 rng(20221017);
  const auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
  };
  int joint_trials = 0;
  int learner_trials = 0;
  int acks_checked = 0;
  int advances = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Server 1 leads. Voters are drawn from 2..12 plus self; a joint trial
    // adds an overlapping old voter set; learners come from the ids nobody
    // votes with.
    rpc::Membership target;
    target.voters = {1};
    for (ServerId s = 2; s <= 12; ++s) {
      if (pick(0, 2) == 0) target.voters.push_back(s);
    }
    const bool joint = pick(0, 2) == 0;
    if (joint) {
      target.old_voters = {1};
      for (ServerId s = 2; s <= 12; ++s) {
        if (pick(0, 2) == 0) target.old_voters.push_back(s);
      }
      // Sometimes the leader is removing itself: it then counts only
      // toward the old majority.
      if (pick(0, 3) == 0) {
        target.voters.erase(target.voters.begin());
        if (target.voters.empty()) target.voters.push_back(2);
      }
    }
    for (ServerId s = 13; s <= 14; ++s) {
      if (pick(0, 1) == 0) target.learners.push_back(s);
    }
    if (target.joint()) ++joint_trials;
    if (!target.learners.empty()) ++learner_trials;

    // Mixed-term recovered log; a joint trial carries the joint entry
    // (uncommitted) somewhere in it, so the config is in force at election.
    Bootstrap boot;
    const Term recovered_term = static_cast<Term>(pick(1, 4));
    boot.hard_state = HardState{recovered_term, kNoServer, {}};
    rpc::Membership base = target;
    if (target.joint()) {
      base.voters = target.old_voters;
      base.old_voters.clear();
    }
    const auto len = static_cast<LogIndex>(pick(0, 8));
    const LogIndex conf_at = target.joint() ? static_cast<LogIndex>(pick(1, len + 1)) : 0;
    Term t = 1;
    for (LogIndex i = 1; i <= std::max(len, conf_at); ++i) {
      t = std::min<Term>(recovered_term, t + static_cast<Term>(pick(0, 1)));
      rpc::LogEntry e;
      e.term = t;
      e.index = i;
      if (i == conf_at) {
        e.kind = rpc::EntryKind::kConfChange;
        e.command = encode_conf_entry(target);
      }
      boot.log.push_back(e);
    }
    NodeOptions opts;
    opts.commit_noop_on_elect = true;
    RaftNode node(1, base, std::make_unique<RaftRandomizedPolicy>(kMin, kMax), Rng(trial),
                  opts, std::move(boot));
    node.start(0);
    node.tick(kMax + 1);  // a sole voter wins here, everyone else campaigns
    for (const ServerId v : voter_union(node.membership())) {
      rpc::RequestVoteReply vote;
      vote.term = node.term();
      vote.vote_granted = true;
      vote.voter_id = v;
      node.step({v, 1, vote}, kMax + 1);
    }
    ASSERT_EQ(node.role(), Role::kLeader);
    for (int i = static_cast<int>(pick(0, 4)); i > 0; --i) node.submit({1}, kMax + 1);

    // Random successful acks from voters and learners alike.
    std::vector<ServerId> peers = all_members(node.membership());
    peers.erase(std::remove(peers.begin(), peers.end(), ServerId{1}), peers.end());
    for (int ack = 0; ack < 40 && !peers.empty(); ++ack) {
      const ServerId from = peers[pick(0, peers.size() - 1)];
      rpc::AppendEntriesReply reply;
      reply.term = node.term();
      reply.success = true;
      reply.from = from;
      reply.match_index = static_cast<LogIndex>(pick(0, node.log().last_index()));
      std::map<ServerId, LogIndex> match;
      for (const ServerId s : peers) match[s] = node.progress(s)->match;
      match[from] = std::max(match[from], reply.match_index);
      const rpc::Membership before = node.membership();
      const LogIndex last = node.log().last_index();
      const LogIndex conf_index = node.conf_index();
      const LogIndex commit = node.commit_index();
      node.step({from, 1, reply}, kMax + 1);
      // The leader never rewrites its log, so the post-step log answers
      // every term lookup at or below `last`.
      LogIndex want = per_index_scan(before, 1, match, node.log(), last, commit, node.term());
      if (want > commit && before.joint() && conf_index <= want) {
        // Committing Cold,new appends Cnew; the leader counts again under it.
        want = per_index_scan(finish_joint(before), 1, match, node.log(),
                              node.log().last_index(), want, node.term());
      }
      ASSERT_EQ(node.commit_index(), want) << "trial " << trial << " ack " << ack;
      ++acks_checked;
      if (want > commit) ++advances;
      if (node.role() != Role::kLeader) break;  // committed Cnew retired it
      // Committing the joint entry appends Cnew and can retire peers.
      peers = all_members(node.membership());
      peers.erase(std::remove(peers.begin(), peers.end(), ServerId{1}), peers.end());
    }
  }
  EXPECT_GT(joint_trials, 50);
  EXPECT_GT(learner_trials, 100);
  EXPECT_GT(acks_checked, 5000);
  EXPECT_GT(advances, 300);
}

}  // namespace
}  // namespace escape::raft
