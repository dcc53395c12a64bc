// Crash-point enumeration over the Ready drain. A driver may die at any
// point between ready() and advance(); the two observable classes are
// "persisted but not sent" (kill right after the persistence section) and
// "sent but not applied" (kill right after the transport hand-off). For a
// scripted follower run covering appends, a vote grant, a configuration
// adoption and a snapshot install, this suite kills the drain at EVERY
// (batch, phase) point, restarts from the surviving stores, and checks the
// recovery invariants:
//
//   - everything acked before the crash is still durable after it (the
//     leader commits on those acks — read linearizability rests on this),
//   - a granted vote survives (no second vote in the same term),
//   - the adopted configuration clock survives (Lemma 3: a conf clock, once
//     advertised, is never regressed),
//   - the restarted node completes the remainder of the scenario.
//
// Plus the negative tests for the persist-before-send checker itself, which
// NodeDriver runs on every batch in every build.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/escape_policy.h"
#include "raft/driver.h"
#include "raft/membership.h"
#include "raft/raft_node.h"
#include "storage/snapshot_store.h"
#include "storage/state_store.h"
#include "storage/wal.h"

#include <unistd.h>

namespace escape::raft {
namespace {

// Timeouts far beyond the script's clock so the follower never campaigns;
// every transition in the run is driven by the scripted messages.
constexpr Duration kQuiet = from_ms(1'000'000);

struct CrashInjected {};

/// Kill switch armed at one (batch ordinal, phase) point of a run.
struct KillPoint {
  std::size_t batch = 0;  ///< 0-based ordinal over drained batches
  NodeDriver::Phase phase = NodeDriver::Phase::kPersisted;
};

/// One incarnation: driver + core over the (outliving) stores.
class Incarnation {
 public:
  Incarnation(storage::MemoryStateStore& store, storage::MemoryWal& wal,
              storage::MemorySnapshotStore& snaps, std::optional<KillPoint> kill)
      : driver_(store, wal, &snaps) {
    // Quiet timeouts keep the follower scripted; the guard and lease are off
    // so the scripted vote is judged on log recency alone. EscapePolicy (not
    // the vanilla Raft policy) so the scripted configuration adoption — and
    // with it the Lemma 3 conf-clock invariant — is actually exercised.
    NodeOptions opts;
    opts.lease_ratio = 0;
    opts.vote_guard_ratio = 0;
    core::EscapeOptions escape;
    escape.base_time = kQuiet;
    node_ = std::make_unique<RaftNode>(1, std::vector<ServerId>{1, 2, 3},
                                       std::make_unique<core::EscapePolicy>(1, 3, escape),
                                       Rng(7), opts, driver_.recover());
    driver_.attach(*node_);
    driver_.hooks().send = [this](const std::vector<rpc::Envelope>& batch) {
      sent_.insert(sent_.end(), batch.begin(), batch.end());
    };
    driver_.hooks().apply = [this](const rpc::LogEntry& e) { applied_.push_back(e); };
    driver_.hooks().phase = [this, kill](NodeDriver::Phase phase, const Ready&) {
      if (phase == NodeDriver::Phase::kSent) ++batches_seen_;
      if (kill && kill->batch == batch_ordinal(phase) && kill->phase == phase) {
        throw CrashInjected{};
      }
    };
  }

  /// Feeds script inputs starting at `cursor`; returns the index of the
  /// first unconsumed input (== script size when it survived to the end).
  std::size_t run(const std::vector<rpc::Envelope>& script, std::size_t cursor) {
    node_->start(0);
    try {
      driver_.pump();
      while (cursor < script.size()) {
        node_->step(script[cursor], static_cast<TimePoint>(cursor + 1));
        ++cursor;
        driver_.pump();
      }
    } catch (const CrashInjected&) {
      crashed_ = true;
    }
    return cursor;
  }

  /// One extra input outside the script (e.g. a trailing leader heartbeat).
  void deliver(const rpc::Envelope& envelope, TimePoint now) {
    node_->step(envelope, now);
    driver_.pump();
  }

  bool crashed() const { return crashed_; }
  std::size_t batches_completed() const { return batches_seen_; }
  const std::vector<rpc::Envelope>& sent() const { return sent_; }
  const RaftNode& node() const { return *node_; }

 private:
  std::size_t batch_ordinal(NodeDriver::Phase phase) const {
    // kPersisted fires before batches_seen_ ticks over, kSent after.
    return phase == NodeDriver::Phase::kPersisted ? batches_seen_ : batches_seen_ - 1;
  }

  NodeDriver driver_;
  std::unique_ptr<RaftNode> node_;
  std::vector<rpc::Envelope> sent_;
  std::vector<rpc::LogEntry> applied_;
  std::size_t batches_seen_ = 0;
  bool crashed_ = false;
};

rpc::AppendEntries make_append(Term term, LogIndex prev, Term prev_term,
                               std::vector<LogIndex> indices, LogIndex commit) {
  rpc::AppendEntries ae;
  ae.term = term;
  ae.leader_id = 2;
  ae.prev_log_index = prev;
  ae.prev_log_term = prev_term;
  ae.leader_commit = commit;
  for (LogIndex i : indices) {
    rpc::LogEntry e;
    e.term = term;
    e.index = i;
    e.command = {static_cast<std::uint8_t>(i)};
    ae.entries.push_back(std::move(e));
  }
  return ae;
}

/// The scripted follower life: replicate, apply, vote, adopt a config,
/// install a snapshot, resume replication beyond it.
std::vector<rpc::Envelope> make_script() {
  std::vector<rpc::Envelope> script;
  script.push_back({2, 1, make_append(2, 0, 0, {1, 2}, 0)});
  script.push_back({2, 1, make_append(2, 2, 2, {3}, 2)});
  rpc::RequestVote rv;
  rv.term = 3;
  rv.candidate_id = 2;
  rv.last_log_index = 3;
  rv.last_log_term = 2;
  script.push_back({2, 1, rv});
  auto with_config = make_append(3, 3, 2, {4}, 3);
  rpc::Configuration cfg;
  cfg.timer_period = kQuiet;
  cfg.priority = 2;
  cfg.conf_clock = 1;
  with_config.new_config = cfg;
  script.push_back({2, 1, with_config});
  rpc::InstallSnapshot snap;
  snap.term = 3;
  snap.leader_id = 2;
  snap.last_included_index = 6;
  snap.last_included_term = 3;
  snap.config = cfg;
  snap.state = {0xAA, 0xBB};
  script.push_back({2, 1, snap});
  script.push_back({2, 1, make_append(3, 6, 3, {7}, 7)});
  return script;
}

/// Highest append/snapshot index the pre-crash incarnation acked: the leader
/// counts these toward commit, so they must survive the crash.
LogIndex highest_acked(const std::vector<rpc::Envelope>& sent) {
  LogIndex acked = 0;
  for (const auto& env : sent) {
    if (const auto* r = std::get_if<rpc::AppendEntriesReply>(&env.message)) {
      if (r->success) acked = std::max(acked, r->match_index);
    } else if (const auto* r2 = std::get_if<rpc::InstallSnapshotReply>(&env.message)) {
      if (r2->success) acked = std::max(acked, r2->match_index);
    }
  }
  return acked;
}

/// Highest conf clock the pre-crash incarnation advertised in replies.
ConfClock highest_advertised_clock(const std::vector<rpc::Envelope>& sent) {
  ConfClock clock = 0;
  for (const auto& env : sent) {
    if (const auto* r = std::get_if<rpc::AppendEntriesReply>(&env.message)) {
      clock = std::max(clock, r->status.conf_clock);
    }
  }
  return clock;
}

TEST(DriverCrashPointTest, EveryKillPointRecoversSafely) {
  // Dry run: how many batches does the full script drain?
  std::size_t total_batches = 0;
  {
    storage::MemoryStateStore store;
    storage::MemoryWal wal;
    storage::MemorySnapshotStore snaps;
    Incarnation dry(store, wal, snaps, std::nullopt);
    ASSERT_EQ(dry.run(make_script(), 0), make_script().size());
    ASSERT_FALSE(dry.crashed());
    total_batches = dry.batches_completed();
    ASSERT_EQ(dry.node().commit_index(), 7);
    ASSERT_EQ(dry.node().conf_clock(), 1);
  }
  ASSERT_GE(total_batches, 5u);

  const auto script = make_script();
  int kill_points = 0;
  for (std::size_t batch = 0; batch < total_batches; ++batch) {
    for (const auto phase : {NodeDriver::Phase::kPersisted, NodeDriver::Phase::kSent}) {
      ++kill_points;
      storage::MemoryStateStore store;
      storage::MemoryWal wal;
      storage::MemorySnapshotStore snaps;

      auto first = std::make_unique<Incarnation>(store, wal, snaps, KillPoint{batch, phase});
      const std::size_t cursor = first->run(script, 0);
      ASSERT_TRUE(first->crashed()) << "kill point (" << batch << ") never fired";
      const LogIndex acked = highest_acked(first->sent());
      const ConfClock advertised = highest_advertised_clock(first->sent());
      const auto sent_before = first->sent();
      first.reset();  // the process dies; only store/wal/snaps survive

      // Restart from the surviving stores. Boot itself must not throw —
      // every crash point leaves WAL/snapshot in a recoverable state.
      auto second = std::make_unique<Incarnation>(store, wal, snaps, std::nullopt);
      const auto& node = second->node();

      // Acked durability: what the dead incarnation acknowledged is still
      // covered (log or snapshot). A lost ack here would let the leader
      // commit — and linearizable reads observe — an entry this quorum
      // member no longer holds.
      EXPECT_GE(std::max(node.log().last_index(), node.log().base()), acked)
          << "batch " << batch << " phase " << static_cast<int>(phase);

      // Vote durability: if the dead incarnation granted a vote, the
      // restarted one remembers it and refuses a rival in the same term.
      for (const auto& env : sent_before) {
        const auto* vote = std::get_if<rpc::RequestVoteReply>(&env.message);
        if (vote == nullptr || !vote->vote_granted) continue;
        const auto persisted = store.load();
        ASSERT_TRUE(persisted.has_value());
        EXPECT_GE(persisted->current_term, vote->term);
        if (persisted->current_term == vote->term) {
          EXPECT_EQ(persisted->voted_for, 2u);
        }
      }

      // Lemma 3: an advertised conf clock never regresses across restart
      // (adoption persists into the hard state before any reply carries it).
      if (advertised > 0) {
        const auto persisted = store.load();
        ASSERT_TRUE(persisted.has_value());
        EXPECT_GE(persisted->config.conf_clock, advertised);
      }

      // The survivor finishes the scenario (the leader would retransmit
      // from the unconsumed input on).
      const std::size_t end = second->run(script, cursor);
      EXPECT_EQ(end, script.size());
      EXPECT_FALSE(second->crashed());
      // Commit is volatile; when the kill hit the script's very last batch
      // the restart has entry 7 durable but needs the leader's next
      // heartbeat to learn it committed — exactly what a live leader sends.
      second->deliver({2, 1, make_append(3, 7, 3, {}, 7)}, 100);
      EXPECT_EQ(second->node().commit_index(), 7);
      EXPECT_EQ(second->node().log().last_index(), 7);
      EXPECT_EQ(second->node().conf_clock(), 1);
    }
  }
  EXPECT_GE(kill_points, 10);
}

// --- joint-consensus crash points --------------------------------------------
// The same kill-point enumeration, but the script walks a follower through a
// full joint-consensus handoff: Cold,new (joint) then Cnew as configuration
// entries in the replicated log. A membership is adopted on *append* and
// reconstructed purely from snapshot + WAL on restart, so at every crash
// point the recovered node's membership() must equal what the latest durable
// conf entry says — never a phase-torn hybrid.

rpc::Membership joint_membership() {
  rpc::Membership m;
  m.voters = {1, 2, 3, 4};
  m.old_voters = {1, 2, 3};
  return m;
}

rpc::Envelope make_conf_append(LogIndex prev, LogIndex index, const rpc::Membership& m,
                               LogIndex commit) {
  auto ae = make_append(2, prev, 2, {}, commit);
  rpc::LogEntry e;
  e.term = 2;
  e.index = index;
  e.kind = rpc::EntryKind::kConfChange;
  e.command = encode_conf_entry(m);
  ae.entries.push_back(std::move(e));
  return {2, 1, ae};
}

/// Replicate, adopt Cold,new, adopt Cnew, learn the commit.
std::vector<rpc::Envelope> make_reconfig_script() {
  std::vector<rpc::Envelope> script;
  script.push_back({2, 1, make_append(2, 0, 0, {1, 2}, 0)});
  script.push_back(make_conf_append(2, 3, joint_membership(), 2));
  script.push_back(make_conf_append(3, 4, finish_joint(joint_membership()), 3));
  script.push_back({2, 1, make_append(2, 4, 2, {}, 4)});
  return script;
}

/// What the durable log says the membership is: the last conf entry in the
/// recovered WAL, or the bootstrap voter trio when none survived.
rpc::Membership durable_membership(const storage::MemoryWal& wal) {
  rpc::Membership m;
  m.voters = {1, 2, 3};
  for (const auto& e : wal.recovered()) {
    if (e.kind == rpc::EntryKind::kConfChange) m = decode_conf_entry(e.command);
  }
  return m;
}

TEST(DriverCrashPointTest, JointConfigEveryKillPointRecoversMembership) {
  std::size_t total_batches = 0;
  {
    storage::MemoryStateStore store;
    storage::MemoryWal wal;
    storage::MemorySnapshotStore snaps;
    Incarnation dry(store, wal, snaps, std::nullopt);
    ASSERT_EQ(dry.run(make_reconfig_script(), 0), make_reconfig_script().size());
    ASSERT_FALSE(dry.crashed());
    total_batches = dry.batches_completed();
    ASSERT_EQ(dry.node().commit_index(), 4);
    ASSERT_EQ(dry.node().membership(), finish_joint(joint_membership()));
  }
  ASSERT_GE(total_batches, 3u);

  const auto script = make_reconfig_script();
  for (std::size_t batch = 0; batch < total_batches; ++batch) {
    for (const auto phase : {NodeDriver::Phase::kPersisted, NodeDriver::Phase::kSent}) {
      storage::MemoryStateStore store;
      storage::MemoryWal wal;
      storage::MemorySnapshotStore snaps;

      auto first = std::make_unique<Incarnation>(store, wal, snaps, KillPoint{batch, phase});
      const std::size_t cursor = first->run(script, 0);
      ASSERT_TRUE(first->crashed()) << "kill point (" << batch << ") never fired";
      const LogIndex acked = highest_acked(first->sent());
      first.reset();

      auto second = std::make_unique<Incarnation>(store, wal, snaps, std::nullopt);
      const auto& node = second->node();

      // Membership rescan: whatever phase the crash tore through, the
      // restarted node's view equals the latest durable conf entry — the
      // joint config exactly when only Cold,new survived, never a mix.
      EXPECT_EQ(node.membership(), durable_membership(wal))
          << "batch " << batch << " phase " << static_cast<int>(phase);

      // An acked conf entry is as durable as an acked command: the leader
      // counts it toward the joint commit that drives the handoff forward.
      EXPECT_GE(node.log().last_index(), acked)
          << "batch " << batch << " phase " << static_cast<int>(phase);

      // The survivor finishes the handoff and lands on Cnew.
      const std::size_t end = second->run(script, cursor);
      EXPECT_EQ(end, script.size());
      EXPECT_FALSE(second->crashed());
      second->deliver({2, 1, make_append(2, 4, 2, {}, 4)}, 100);
      EXPECT_EQ(second->node().commit_index(), 4);
      EXPECT_EQ(second->node().membership(), finish_joint(joint_membership()));
      EXPECT_FALSE(second->node().membership().joint());
    }
  }
}

// --- the persist-before-send checker, tested directly ------------------------
// NodeDriver runs ReadySequenceChecker on every batch in every build (Release,
// sanitizers, SimCheck, the soak, perfbench); these negative tests pin down
// what it rejects.

Ready append_and_ack_batch() {
  Ready rd;
  HardState hs;
  hs.current_term = 3;
  hs.voted_for = 2;
  rd.hard_state = hs;
  rpc::LogEntry e;
  e.term = 3;
  e.index = 1;
  e.command = {0x1};
  rd.log_ops.push_back(LogOp::append(e));
  rpc::AppendEntriesReply ack;
  ack.term = 3;
  ack.success = true;
  ack.from = 1;
  ack.match_index = 1;
  rd.messages.push_back({1, 2, ack});
  return rd;
}

TEST(ReadySequenceCheckerTest, SendBeforePersistIsCaught) {
  ReadySequenceChecker checker;
  checker.seed(Bootstrap{});
  const Ready rd = append_and_ack_batch();
  // A driver that ships the ack before running the persistence section
  // calls check_send against stale durable state: caught.
  EXPECT_THROW(checker.check_send(rd), std::logic_error);
  checker.note_persisted(rd);
  EXPECT_NO_THROW(checker.check_send(rd));
}

TEST(ReadySequenceCheckerTest, UnpersistedVoteGrantIsCaught) {
  ReadySequenceChecker checker;
  checker.seed(Bootstrap{});
  Ready rd;
  HardState hs;
  hs.current_term = 5;
  hs.voted_for = 3;
  rd.hard_state = hs;
  rpc::RequestVoteReply grant;
  grant.term = 5;
  grant.vote_granted = true;
  grant.voter_id = 1;
  rd.messages.push_back({1, 3, grant});
  EXPECT_THROW(checker.check_send(rd), std::logic_error);
  checker.note_persisted(rd);
  EXPECT_NO_THROW(checker.check_send(rd));
}

TEST(ReadySequenceCheckerTest, TruncationShrinksDurableCoverage) {
  ReadySequenceChecker checker;
  Bootstrap boot;
  rpc::LogEntry e;
  e.term = 1;
  e.index = 3;
  boot.log = {e};
  checker.seed(boot);

  // Truncating from 2 leaves only index 1 durable; acking 3 afterwards is a
  // violation even though 3 was durable once.
  Ready rd;
  rd.log_ops.push_back(LogOp::truncate_from(2));
  checker.note_persisted(rd);

  Ready ack_batch;
  rpc::AppendEntriesReply ack;
  ack.term = 1;
  ack.success = true;
  ack.match_index = 3;
  ack_batch.messages.push_back({1, 2, ack});
  EXPECT_THROW(checker.check_send(ack_batch), std::logic_error);
  ack.match_index = 1;
  ack_batch.messages.clear();
  ack_batch.messages.push_back({1, 2, ack});
  EXPECT_NO_THROW(checker.check_send(ack_batch));
}

TEST(ReadySequenceCheckerTest, SeededFromBootstrapCoversRecoveredState) {
  // A recovered node replying about its pre-crash log must not trip the
  // checker: seeding from the Bootstrap is part of the contract.
  ReadySequenceChecker checker;
  Bootstrap boot;
  HardState hs;
  hs.current_term = 4;
  boot.hard_state = hs;
  rpc::LogEntry e;
  e.term = 4;
  e.index = 9;
  boot.log = {e};
  checker.seed(boot);

  Ready rd;
  rpc::AppendEntriesReply ack;
  ack.term = 4;
  ack.success = true;
  ack.match_index = 9;
  rd.messages.push_back({1, 2, ack});
  EXPECT_NO_THROW(checker.check_send(rd));
}

TEST(ReadySequenceCheckerTest, AsyncStagedSendsOverclaimUntilFlushedInOrder) {
  // Two batches A then B whose writes are issued but not yet durable: a
  // driver that releases a batch's sends before its persistence is noted —
  // or releases B while only A is durable — overclaims durability and must
  // be caught. Batches become durable in order.
  ReadySequenceChecker checker;
  checker.seed(Bootstrap{});

  Ready a;
  for (LogIndex i = 1; i <= 2; ++i) {
    rpc::LogEntry e;
    e.term = 1;
    e.index = i;
    e.command = {static_cast<std::uint8_t>(i)};
    a.log_ops.push_back(LogOp::append(e));
  }
  rpc::AppendEntriesReply ack_a;
  ack_a.term = 1;
  ack_a.success = true;
  ack_a.from = 1;
  ack_a.match_index = 2;
  a.messages.push_back({1, 2, ack_a});

  Ready b;
  rpc::LogEntry e3;
  e3.term = 1;
  e3.index = 3;
  e3.command = {0x3};
  b.log_ops.push_back(LogOp::append(e3));
  rpc::AppendEntriesReply ack_b = ack_a;
  ack_b.match_index = 3;
  b.messages.push_back({1, 2, ack_b});

  // Releasing either batch's sends while both still sit in the queue.
  EXPECT_THROW(checker.check_send(a), std::logic_error);
  EXPECT_THROW(checker.check_send(b), std::logic_error);

  // Correct FIFO flush of A; B's ack still reaches into unsynced territory —
  // releasing it now would be skipping the queue.
  checker.note_persisted(a);
  EXPECT_NO_THROW(checker.check_send(a));
  EXPECT_THROW(checker.check_send(b), std::logic_error);

  checker.note_persisted(b);
  EXPECT_NO_THROW(checker.check_send(b));
}

TEST(ReadySequenceCheckerTest, AsyncLeaderShipmentOverclaimIsCaught) {
  // A pipelining leader's own AppendEntries ships the entries it just wrote
  // (it counts itself toward their quorum). Before the covering sync that
  // shipment is an overclaim: the checker rejects it at check_send.
  ReadySequenceChecker checker;
  Bootstrap boot;
  HardState hs;
  hs.current_term = 2;
  boot.hard_state = hs;
  checker.seed(boot);

  Ready rd;
  rpc::AppendEntries ae;
  ae.term = 2;
  ae.leader_id = 1;
  ae.prev_log_index = 0;
  ae.prev_log_term = 0;
  for (LogIndex i = 1; i <= 3; ++i) {
    rpc::LogEntry e;
    e.term = 2;
    e.index = i;
    e.command = {static_cast<std::uint8_t>(i)};
    rd.log_ops.push_back(LogOp::append(e));
    ae.entries.push_back(e);
  }
  rd.messages.push_back({1, 2, ae});

  EXPECT_THROW(checker.check_send(rd), std::logic_error);
  checker.note_persisted(rd);
  EXPECT_NO_THROW(checker.check_send(rd));
}

// --- WAL rollover: kill points inside a compaction on file stores ----------
//
// A compaction batch is [save snapshot, compact record]; FileWal turns the
// compact record into a rollover: seal the open segment, create the next
// one, unlink the covered ones. The kills below land between those steps,
// and every restart must rebuild the same log and state machine — the same
// one a crash after the whole compaction rebuilds.

/// Forwards to a FileWal, except that it can die at the start of
/// compact_to(): the snapshot is saved, the compact record is not written.
class KillableWal final : public storage::Wal {
 public:
  KillableWal(storage::FileWal& inner, bool die_at_compact)
      : inner_(inner), die_at_compact_(die_at_compact) {}
  void append(const rpc::LogEntry& e) override { inner_.append(e); }
  void append_batch(const std::vector<rpc::LogEntry>& es) override { inner_.append_batch(es); }
  void truncate_from(LogIndex from) override { inner_.truncate_from(from); }
  void compact_to(LogIndex upto) override {
    if (die_at_compact_) throw CrashInjected{};
    inner_.compact_to(upto);
  }
  void sync() override { inner_.sync(); }
  std::vector<rpc::LogEntry> recovered() const override { return inner_.recovered(); }

 private:
  storage::FileWal& inner_;
  const bool die_at_compact_;
};

/// What a restart rebuilds: the log above the snapshot plus the state.
struct DurableImage {
  LogIndex base = 0;
  std::vector<rpc::LogEntry> entries;
  std::vector<std::uint8_t> state;
  bool operator==(const DurableImage&) const = default;
};

/// A single-voter node over file stores in `dir` (it commits on its own, so
/// every submit is applied by the next drain).
class FileNode {
 public:
  explicit FileNode(const std::filesystem::path& dir, bool die_at_compact = false)
      : store_((dir / "S1.state").string()),
        file_wal_((dir / "S1.wal").string()),
        snaps_((dir / "S1.snap").string()),
        wal_(file_wal_, die_at_compact),
        driver_(store_, wal_, &snaps_) {
    auto policy = std::make_unique<RaftRandomizedPolicy>(from_ms(150), from_ms(300));
    node_ = std::make_unique<RaftNode>(1, std::vector<ServerId>{1}, std::move(policy), Rng(3),
                                       NodeOptions{}, driver_.recover());
    driver_.attach(*node_);
    node_->start(now_);
    driver_.pump();
    now_ += from_ms(1000);
    node_->tick(now_);
    driver_.pump();
  }

  void submit(int count) {
    for (int i = 0; i < count; ++i) {
      const auto index = node_->submit({static_cast<std::uint8_t>(i)}, now_);
      EXPECT_TRUE(index.has_value());
      driver_.pump();
    }
  }

  /// Compacts through everything applied but the last `behind` entries; the
  /// state names its boundary.
  void compact(LogIndex behind = 0) {
    const LogIndex upto = node_->last_applied() - behind;
    const std::vector<std::uint8_t> state = {'k', 'v', static_cast<std::uint8_t>(upto)};
    ASSERT_TRUE(node_->compact(upto, state, now_).has_value());
    driver_.pump();
  }

  DurableImage image() const {
    DurableImage out;
    out.base = node_->log().base();
    for (LogIndex i = node_->log().first_index(); i <= node_->log().last_index(); ++i) {
      out.entries.push_back(*node_->log().entry_at(i));
    }
    if (node_->snapshot()) out.state = node_->snapshot()->state;
    return out;
  }

 private:
  storage::FileStateStore store_;
  storage::FileWal file_wal_;
  storage::FileSnapshotStore snaps_;
  KillableWal wal_;
  NodeDriver driver_;
  std::unique_ptr<RaftNode> node_;
  TimePoint now_ = 0;
};

class WalRolloverCrashTest : public ::testing::Test {
 protected:
  enum class Kill { kBeforeCompactRecord, kBeforeUnlink, kAfterUnlink };

  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("escape_rollover_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  static std::vector<std::string> wal_files(const std::filesystem::path& dir) {
    std::vector<std::string> names;
    for (const auto& item : std::filesystem::directory_iterator(dir)) {
      const std::string name = item.path().filename().string();
      if (name.rfind("S1.wal", 0) == 0) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  /// History with one earlier rollover (so the kill's compaction has two
  /// segments to unlink), then a compaction killed at `kill`. Returns what
  /// the node held in memory right after the compaction (nullopt when the
  /// kill came first).
  std::optional<DurableImage> run(const std::filesystem::path& dir, Kill kill) {
    std::filesystem::create_directories(dir);
    {
      FileNode node(dir);
      node.submit(30);
      node.compact(/*behind=*/5);  // S1.wal keeps 26..30, so it stays
      node.submit(20);
    }
    EXPECT_EQ(wal_files(dir), (std::vector<std::string>{"S1.wal", "S1.wal.00000001"}));

    // The crashing incarnation: a restart, more writes, then the compaction.
    const std::filesystem::path saved = dir / "pre-compaction";
    std::filesystem::create_directories(saved);
    FileNode node(dir, kill == Kill::kBeforeCompactRecord);
    node.submit(10);
    for (const auto& name : wal_files(dir)) {
      std::filesystem::copy_file(dir / name, saved / name);
    }
    if (kill == Kill::kBeforeCompactRecord) {
      EXPECT_THROW(node.compact(), CrashInjected);
      EXPECT_EQ(wal_files(dir), (std::vector<std::string>{"S1.wal", "S1.wal.00000001"}));
      return std::nullopt;
    }
    node.compact();
    // Both older segments held only indices the snapshot covers.
    EXPECT_EQ(wal_files(dir), std::vector<std::string>{"S1.wal.00000002"});
    if (kill == Kill::kBeforeUnlink) {
      // The disk as it stood after the new segment was created and before
      // the unlinks: nothing is written to an old segment once it is sealed,
      // so the copies are exactly those files.
      for (const auto& item : std::filesystem::directory_iterator(saved)) {
        std::filesystem::copy_file(item.path(), dir / item.path().filename());
      }
    }
    return node.image();
  }

  std::filesystem::path root_;
};

TEST_F(WalRolloverCrashTest, EveryKillPointRecoversTheSameLogAndState) {
  // What the node held in memory once its compaction completed.
  const auto reference = run(root_ / "reference", Kill::kAfterUnlink);
  ASSERT_TRUE(reference.has_value());
  ASSERT_FALSE(reference->state.empty());

  for (const Kill kill : {Kill::kBeforeCompactRecord, Kill::kBeforeUnlink, Kill::kAfterUnlink}) {
    SCOPED_TRACE(static_cast<int>(kill));
    const auto dir = root_ / ("kill" + std::to_string(static_cast<int>(kill)));
    run(dir, kill);
    DurableImage recovered;
    {
      FileNode restarted(dir);
      recovered = restarted.image();
      // The restarted node keeps going: more writes and another rollover.
      restarted.submit(5);
      restarted.compact();
      restarted.submit(3);
    }
    EXPECT_EQ(recovered, *reference);

    FileNode again(dir);
    const DurableImage later = again.image();
    EXPECT_EQ(later.base, reference->base + 5);
    EXPECT_EQ(later.entries.size(), 3u);
    // The second rollover covered every older segment, whichever survived
    // the kill.
    EXPECT_EQ(wal_files(dir).size(), 1u);
  }
}

}  // namespace
}  // namespace escape::raft
