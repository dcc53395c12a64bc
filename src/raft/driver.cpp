#include "raft/driver.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace escape::raft {

// --- ReadySequenceChecker ----------------------------------------------------

void ReadySequenceChecker::seed(const Bootstrap& boot) {
  persisted_term_ = boot.hard_state ? boot.hard_state->current_term : 0;
  durable_index_ = boot.snapshot ? boot.snapshot->last_included_index : 0;
  if (!boot.log.empty()) {
    durable_index_ = std::max(durable_index_, boot.log.back().index);
  }
}

void ReadySequenceChecker::note_persisted(const Ready& ready) {
  if (ready.hard_state) {
    persisted_term_ = std::max(persisted_term_, ready.hard_state->current_term);
  }
  for (const LogOp& op : ready.log_ops) {
    switch (op.kind) {
      case LogOp::Kind::kAppend:
        durable_index_ = op.entry.index;
        break;
      case LogOp::Kind::kTruncateFrom:
        durable_index_ = std::min(durable_index_, op.index - 1);
        break;
      case LogOp::Kind::kCompactTo:
        // The prefix through `index` is absorbed by a snapshot; durable
        // coverage extends at least that far even if the WAL shrank.
        durable_index_ = std::max(durable_index_, op.index);
        break;
      case LogOp::Kind::kSaveSnapshot:
        durable_index_ = std::max(durable_index_, op.snapshot->last_included_index);
        break;
    }
  }
}

namespace {

[[noreturn]] void violation(const std::string& what) {
  throw std::logic_error("persist-before-send violation: " + what);
}

}  // namespace

void ReadySequenceChecker::check_send(const Ready& ready) const {
  for (const rpc::Envelope& env : ready.messages) {
    std::visit(
        [&](const auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, rpc::RequestVote>) {
            // A campaign implies (term, voted_for = self) is durable: a
            // crash-restart must not let this server vote for a rival in the
            // same term it campaigned in.
            if (m.term > persisted_term_) {
              violation("RequestVote in term " + std::to_string(m.term) +
                        " but persisted term is " + std::to_string(persisted_term_));
            }
          } else if constexpr (std::is_same_v<T, rpc::RequestVoteReply>) {
            // A granted vote must survive a crash, or the server could
            // grant a second vote in the same term after restarting.
            if (m.vote_granted && m.term > persisted_term_) {
              violation("granted vote in term " + std::to_string(m.term) +
                        " but persisted term is " + std::to_string(persisted_term_));
            }
          } else if constexpr (std::is_same_v<T, rpc::AppendEntries>) {
            // The leader counts itself toward the quorum for every entry it
            // ships, so shipped entries must already be durable locally.
            if (!m.entries.empty() && m.entries.back().index > durable_index_) {
              violation("AppendEntries ships index " +
                        std::to_string(m.entries.back().index) +
                        " but the WAL is durable only through " +
                        std::to_string(durable_index_));
            }
            if (m.term > persisted_term_) {
              violation("AppendEntries in term " + std::to_string(m.term) +
                        " but persisted term is " + std::to_string(persisted_term_));
            }
          } else if constexpr (std::is_same_v<T, rpc::AppendEntriesReply>) {
            // An ack of index i promises i is durable here: the leader
            // commits on this promise.
            if (m.success && m.match_index > durable_index_) {
              violation("AppendEntriesReply acks index " + std::to_string(m.match_index) +
                        " but the WAL is durable only through " +
                        std::to_string(durable_index_));
            }
          } else if constexpr (std::is_same_v<T, rpc::InstallSnapshot>) {
            if (m.last_included_index > durable_index_) {
              violation("InstallSnapshot ships boundary " +
                        std::to_string(m.last_included_index) +
                        " but durable coverage ends at " + std::to_string(durable_index_));
            }
          } else if constexpr (std::is_same_v<T, rpc::InstallSnapshotReply>) {
            if (m.success && m.match_index > durable_index_) {
              violation("InstallSnapshotReply acks boundary " +
                        std::to_string(m.match_index) + " but durable coverage ends at " +
                        std::to_string(durable_index_));
            }
          } else {
            // TimeoutNow and non-consensus traffic carry no durability
            // promise of their own.
            (void)m;
          }
        },
        env.message);
  }
}

// --- NodeDriver --------------------------------------------------------------

NodeDriver::NodeDriver(storage::StateStore& state_store, storage::Wal& wal,
                       storage::SnapshotStore* snapshots)
    : state_store_(state_store), wal_(wal), snapshots_(snapshots) {}

Bootstrap NodeDriver::recover() {
  Bootstrap boot;
  boot.hard_state = state_store_.load();
  if (snapshots_) boot.snapshot = snapshots_->load();
  boot.log = wal_.recovered();
  boot.can_compact = snapshots_ != nullptr;
  checker_.seed(boot);
  applied_ = boot.snapshot ? boot.snapshot->last_included_index : 0;
  return boot;
}

void NodeDriver::attach(RaftNode& node) {
  if (node_) throw std::logic_error("NodeDriver::attach() called twice");
  node_ = &node;
}

std::size_t NodeDriver::execute_log_ops(const Ready& ready) {
  std::size_t records = 0;
  std::vector<rpc::LogEntry> batch;
  const auto flush_batch = [&] {
    if (batch.empty()) return;
    // Group commit step 1: one WAL call (one buffered write for FileWal)
    // for the whole contiguous run of appends.
    if (batch.size() == 1) {
      wal_.append(batch.front());
    } else {
      wal_.append_batch(batch);
    }
    records += batch.size();
    batch.clear();
  };
  for (const LogOp& op : ready.log_ops) {
    switch (op.kind) {
      case LogOp::Kind::kAppend:
        batch.push_back(op.entry);
        break;
      case LogOp::Kind::kTruncateFrom:
        flush_batch();
        wal_.truncate_from(op.index);
        ++records;
        break;
      case LogOp::Kind::kCompactTo:
        flush_batch();
        wal_.compact_to(op.index);
        ++records;
        break;
      case LogOp::Kind::kSaveSnapshot:
        flush_batch();
        if (!snapshots_) {
          // The core only emits saves when bootstrapped with can_compact;
          // reaching here means the driver lied in recover().
          throw std::logic_error("kSaveSnapshot op but no snapshot store");
        }
        snapshots_->save(*op.snapshot);
        break;
    }
  }
  flush_batch();
  return records;
}

bool NodeDriver::pump_one() {
  if (!node_) throw std::logic_error("NodeDriver::pump() before attach()");
  if (!node_->has_ready()) return false;
  Ready ready = node_->ready();

  // 1. Persistence — write everything before a single byte leaves, then
  // group-commit: one sync covers every record the batch carried
  // (NullWal/MemoryWal: no-op; FileWal: one fsync).
  if (ready.hard_state) state_store_.save(*ready.hard_state);
  if (const std::size_t records = execute_log_ops(ready); records > 0) {
    wal_.sync();
    NodeCounters& c = node_->mutable_counters();
    ++c.wal_group_syncs;
    c.wal_records_per_sync.record(records);
  }
  checker_.note_persisted(ready);
  if (hooks_.phase) hooks_.phase(Phase::kPersisted, ready);

  // 2. Send.
  checker_.check_send(ready);
  if (!ready.messages.empty() && hooks_.send) hooks_.send(ready.messages);
  if (hooks_.phase) hooks_.phase(Phase::kSent, ready);

  // 3. Restore, then apply — in-batch order is part of the contract.
  if (ready.restore) {
    applied_ = (*ready.restore)->last_included_index;
    if (hooks_.restore) hooks_.restore(*ready.restore);
  }
  for (const rpc::LogEntry& entry : ready.committed) {
    if (hooks_.apply) hooks_.apply(entry);
    applied_ = entry.index;
  }

  // 4. Reads — strictly after the applies they depend on.
  if (hooks_.read) {
    for (const ReadGrant& grant : ready.read_grants) hooks_.read(grant);
  }

  if (hooks_.observe) hooks_.observe(ready);
  node_->advance(applied_);
  return true;
}

std::size_t NodeDriver::pump() {
  std::size_t drained = 0;
  while (pump_one()) ++drained;
  return drained;
}

}  // namespace escape::raft
