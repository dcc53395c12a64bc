// NodeDriver: the generic Ready consumer bridging the deterministic core to
// real side effects.
//
// A driver owns the I/O a RaftNode is not allowed to perform. recover()
// loads the durable stores into a Bootstrap (the only channel through which
// persisted state reaches a core), attach() binds the core, and pump()
// drains Ready batches in the mandatory order:
//
//   1. persist   hard state -> StateStore, log ops -> Wal/SnapshotStore
//   2. send      outbound messages -> Hooks::send
//   3. restore   superseding snapshot -> Hooks::restore
//   4. apply     committed entries   -> Hooks::apply
//   5. grant     read completions    -> Hooks::read
//
// Both runtimes consume Ready through this class with immediate hooks —
// sim::SimCluster dispatches into the simulated network, net::Replica (under
// RealNode's event loop) into the TCP transport — so the simulator fuzzes the
// same persist-before-send discipline the TCP runtime ships with.
//
// Group commit: a batch's log ops are written (consecutive appends coalesce
// into one Wal::append_batch) and then covered by a single Wal::sync(), so one
// fsync is amortized over everything the batch carried.
//
// In every build, every batch passes through a ReadySequenceChecker, which
// throws if a batch's messages imply state its persistence section did not
// cover (the ordering hazard: acking an append before the entry is durable,
// or confirming a vote that would not survive a crash).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "raft/raft_node.h"
#include "raft/ready.h"
#include "storage/snapshot_store.h"
#include "storage/state_store.h"
#include "storage/wal.h"

namespace escape::raft {

/// Validates the persist-before-send protocol invariant over a stream of
/// Ready batches. NodeDriver runs it on every batch it drains.
///
/// Usage per batch, in this order:
///   checker.note_persisted(ready);   // after executing the persistence ops
///   checker.check_send(ready);       // before handing messages to transport
/// A driver that sends first calls check_send against stale durable state
/// and gets a std::logic_error naming the violating message.
class ReadySequenceChecker {
 public:
  /// Seeds the durable view from what a driver recovered.
  void seed(const Bootstrap& boot);

  /// Records the persistence section of `ready` as executed.
  void note_persisted(const Ready& ready);

  /// Verifies every outbound message is covered by durable state; throws
  /// std::logic_error on the first violation.
  void check_send(const Ready& ready) const;

 private:
  Term persisted_term_ = 0;       ///< highest durably stored current_term
  LogIndex durable_index_ = 0;    ///< highest log index durably covered
};

/// Executes Ready batches against durable stores and environment hooks.
/// Single-threaded: callers serialize recover/attach/pump with node inputs.
class NodeDriver {
 public:
  /// Drain stages a crash-point test can observe (and throw from, modelling
  /// a kill between ready() and advance()).
  enum class Phase : std::uint8_t {
    kPersisted,  ///< hard state + log ops durable; nothing sent yet
    kSent,       ///< messages handed to transport; nothing applied yet
  };

  /// Environment callbacks. Unset hooks skip their stage (messages are
  /// dropped, applies ignored) — fine for tests, not for a runtime.
  struct Hooks {
    /// Ships one batch's outbound messages (after persistence completed).
    std::function<void(const std::vector<rpc::Envelope>&)> send;
    /// Rebuilds the state machine from an installed snapshot, before any
    /// committed entries of the same batch apply.
    std::function<void(const std::shared_ptr<const Snapshot>&)> restore;
    /// Applies one committed entry (called in log order).
    std::function<void(const rpc::LogEntry&)> apply;
    /// Delivers one read grant/rejection (after this batch's applies).
    std::function<void(const ReadGrant&)> read;
    /// Observes each fully executed batch just before advance() — the
    /// driver-conformance tests fingerprint the Ready stream through this.
    std::function<void(const Ready&)> observe;
    /// Crash-point instrumentation; invoked at each Phase boundary.
    std::function<void(Phase, const Ready&)> phase;
  };

  /// The stores are the node's durable identity; `snapshots` may be null
  /// (no snapshot persistence: the core will refuse compact()).
  NodeDriver(storage::StateStore& state_store, storage::Wal& wal,
             storage::SnapshotStore* snapshots);

  NodeDriver(const NodeDriver&) = delete;
  NodeDriver& operator=(const NodeDriver&) = delete;

  /// Loads the durable stores into a Bootstrap for RaftNode's constructor
  /// and seeds the sequence checker's durable view.
  Bootstrap recover();

  /// Binds the core this driver drains. Call once, after constructing the
  /// node from recover()'s Bootstrap.
  void attach(RaftNode& node);

  /// Drains at most one pending Ready batch. Returns false when none is
  /// pending. Effects run in the mandatory order; advance() is called with
  /// the driver's apply cursor before returning.
  bool pump_one();

  /// Drains every pending batch; returns how many were drained.
  std::size_t pump();

  /// Highest index this driver's environment has applied (restore
  /// boundaries included).
  LogIndex applied() const { return applied_; }

  Hooks& hooks() { return hooks_; }
  RaftNode& node() { return *node_; }

 private:
  /// Executes one batch's log ops against the WAL, coalescing consecutive
  /// appends into append_batch(); returns how many WAL records were written.
  std::size_t execute_log_ops(const Ready& ready);

  storage::StateStore& state_store_;
  storage::Wal& wal_;
  storage::SnapshotStore* snapshots_;
  RaftNode* node_ = nullptr;
  LogIndex applied_ = 0;
  Hooks hooks_;
  ReadySequenceChecker checker_;
};

}  // namespace escape::raft
