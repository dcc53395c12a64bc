// The Ready batch: the deterministic core's only output channel.
//
// RaftNode performs no I/O. Every side effect the protocol requires —
// durable writes, outbound messages, state-machine applies, read grants —
// is *described* in a Ready batch that a driver drains and executes:
//
//   node.step(envelope, now);            // or tick / submit / submit_read
//   if (node.has_ready()) {
//     raft::Ready rd = node.ready();
//     persist(rd.hard_state, rd.log_ops);   // 1. durable BEFORE anything else
//     transport.send(rd.messages);          // 2. only now may messages leave
//     if (rd.restore) state_machine.restore(**rd.restore);
//     for (e : rd.committed) state_machine.apply(e);   // 3. apply in order
//     for (g : rd.read_grants) serve(g);    // 4. grants after applies
//     node.advance(applied_index);
//   }
//
// The persist-before-send ordering is a protocol invariant, not a
// performance choice: an AppendEntriesReply acknowledging index i promises i
// is durable here, and a RequestVoteReply granting a vote promises the vote
// survives a crash. Drivers assert the discipline via ReadySequenceChecker
// (raft/driver.h). The payoff of the split is that one bit-identical core is
// exercised by the simulator's fuzzing and by the TCP runtime, and that
// batched persistence (group commit) lives entirely driver-side.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "raft/snapshot.h"
#include "rpc/messages.h"

namespace escape::raft {

/// State that must be durable before a server answers an RPC (Raft Figure 2
/// "persistent state", extended with ESCAPE's adopted configuration).
struct HardState {
  Term current_term = 0;
  ServerId voted_for = kNoServer;
  rpc::Configuration config;  ///< adopted ESCAPE configuration (zeros for Raft)

  bool operator==(const HardState&) const = default;
};

/// Volatile, observable state the driver may want to surface (leader hints
/// for request routing, role for metrics). Never needs persistence.
struct SoftState {
  Role role = Role::kFollower;
  ServerId leader = kNoServer;  ///< current leader hint (kNoServer unknown)
  Term term = 0;
  ConfClock conf_clock = 0;  ///< ESCAPE configuration clock currently adopted

  bool operator==(const SoftState&) const = default;
};

/// One durable log mutation. Ops must be executed strictly in sequence — a
/// batch may legally truncate then append (follower overwrite), or save a
/// snapshot then compact (the save MUST land first: a crash in between
/// replays a covered prefix, never loses one).
struct LogOp {
  enum class Kind : std::uint8_t {
    kAppend,        ///< append `entry` to the WAL at its index
    kTruncateFrom,  ///< discard WAL entries with index >= `index`
    kCompactTo,     ///< WAL prefix through `index` absorbed by a saved snapshot
    kSaveSnapshot,  ///< durably replace the stored snapshot with `snapshot`
  };

  Kind kind = Kind::kAppend;
  rpc::LogEntry entry;  ///< kAppend only
  LogIndex index = 0;   ///< kTruncateFrom / kCompactTo only
  /// kSaveSnapshot only. Shared with the core's in-memory copy — snapshots
  /// can be megabytes and one value may be persisted, shipped, and restored
  /// in the same batch.
  std::shared_ptr<const Snapshot> snapshot;

  static LogOp append(rpc::LogEntry e) {
    LogOp op;
    op.kind = Kind::kAppend;
    op.entry = std::move(e);
    return op;
  }
  static LogOp truncate_from(LogIndex index) {
    LogOp op;
    op.kind = Kind::kTruncateFrom;
    op.index = index;
    return op;
  }
  static LogOp compact_to(LogIndex index) {
    LogOp op;
    op.kind = Kind::kCompactTo;
    op.index = index;
    return op;
  }
  static LogOp save_snapshot(std::shared_ptr<const Snapshot> snap) {
    LogOp op;
    op.kind = Kind::kSaveSnapshot;
    op.snapshot = std::move(snap);
    return op;
  }
};

/// Completion record for one accepted linearizable read (see
/// RaftNode::submit_read). The driver must apply Ready::committed *before*
/// serving granted reads: a grant promises the local state machine has
/// applied at least `read_index`.
using ReadId = std::uint64_t;
struct ReadGrant {
  ReadId id = 0;
  LogIndex read_index = 0;  ///< state served must include this prefix
  bool ok = false;          ///< false: leadership lost before confirmation
  bool via_lease = false;   ///< served under the lease (no confirmation round)
};

/// One batch of pending side effects. Field order mirrors the mandatory
/// execution order (persist, send, restore, apply, grant).
struct Ready {
  /// Monotone batch number (1-based); advance() acknowledges exactly the
  /// sequence last returned by ready().
  std::uint64_t sequence = 0;

  // --- 1. persistence: must be durable before `messages` are sent ---------
  std::optional<HardState> hard_state;  ///< changed term/vote/config, if any
  std::vector<LogOp> log_ops;           ///< ordered WAL + snapshot mutations

  // --- 2. network ----------------------------------------------------------
  std::vector<rpc::Envelope> messages;

  // --- 3. apply ------------------------------------------------------------
  /// Snapshot to restore into the state machine BEFORE applying `committed`
  /// (an InstallSnapshot superseded the log prefix this incarnation applied).
  std::optional<std::shared_ptr<const Snapshot>> restore;
  std::vector<rpc::LogEntry> committed;  ///< newly committed, in log order

  // --- 4. reads ------------------------------------------------------------
  std::vector<ReadGrant> read_grants;  ///< serve after applying `committed`

  // --- observability -------------------------------------------------------
  std::optional<SoftState> soft_state;  ///< set when role/leader/term changed

  /// True when draining this batch would be a no-op.
  bool empty() const {
    return !hard_state && log_ops.empty() && messages.empty() && !restore &&
           committed.empty() && read_grants.empty() && !soft_state;
  }
};

/// Durable state recovered by a driver and handed to a fresh core. This is
/// the only way persisted state enters the core: the core itself never loads
/// anything.
struct Bootstrap {
  std::optional<HardState> hard_state;  ///< from StateStore::load()
  std::optional<Snapshot> snapshot;     ///< from SnapshotStore::load()
  std::vector<rpc::LogEntry> log;       ///< WAL entries beyond the snapshot
  /// Whether the driver can persist snapshots. When false, compact() refuses
  /// (compacting without a durable snapshot loses the prefix on restart).
  bool can_compact = true;
};

}  // namespace escape::raft
