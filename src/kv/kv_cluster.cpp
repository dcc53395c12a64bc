#include "kv/kv_cluster.h"

#include <algorithm>

#include "common/logging.h"

namespace escape::kv {

KvCluster::KvCluster(sim::SimCluster& cluster) : cluster_(cluster) {
  for (ServerId id : cluster_.members()) stores_[id] = std::make_unique<KvStore>();
  cluster_.set_apply_hook([this](ServerId id, const rpc::LogEntry& entry) {
    // A replayed index means the node restarted and is rebuilding its state
    // machine from the log; start from a fresh store.
    auto& store = stores_[id];
    auto& last = last_applied_[id];
    if (entry.index <= last) store = std::make_unique<KvStore>();
    last = entry.index;
    const auto result_bytes = store->apply(entry);
    if (const auto cmd = decode_command(entry.command)) {
      if (const auto result = decode_result(result_bytes)) {
        results_[id][{cmd->client_id, cmd->sequence}] = *result;
      }
    }
  });
  // Compaction glue: snapshots serialize the replica's KvStore (sessions
  // included, so exactly-once survives), and a restore — whether from the
  // leader's InstallSnapshot or a restart from the local snapshot store —
  // replaces the replica's store wholesale and fast-forwards its applied
  // cursor to the snapshot boundary.
  cluster_.set_snapshot_state_hook(
      [this](ServerId id) { return stores_.at(id)->snapshot(); });
  cluster_.set_snapshot_restore_hook(
      [this](ServerId id, const storage::Snapshot& snap) {
        auto store = std::make_unique<KvStore>();
        if (!snap.state.empty() && !store->restore(snap.state)) {
          LOG_WARN("S" << id << ": malformed snapshot state; starting empty");
        }
        stores_[id] = std::move(store);
        last_applied_[id] = snap.last_included_index;
      });
}

std::optional<CommandResult> KvCluster::put(const std::string& key, const std::string& value,
                                            Duration timeout) {
  Command c;
  c.op = Op::kPut;
  c.key = key;
  c.value = value;
  return run(std::move(c), timeout);
}

std::optional<CommandResult> KvCluster::get(const std::string& key, Duration timeout) {
  Command c;
  c.op = Op::kGet;
  c.key = key;
  return run(std::move(c), timeout);
}

std::optional<CommandResult> KvCluster::del(const std::string& key, Duration timeout) {
  Command c;
  c.op = Op::kDel;
  c.key = key;
  return run(std::move(c), timeout);
}

std::optional<CommandResult> KvCluster::cas(const std::string& key, const std::string& expected,
                                            const std::string& value, Duration timeout) {
  Command c;
  c.op = Op::kCas;
  c.key = key;
  c.expected = expected;
  c.value = value;
  return run(std::move(c), timeout);
}

std::optional<CommandResult> KvCluster::read(const std::string& key, Duration timeout) {
  const TimePoint deadline = cluster_.loop().now() + timeout;
  // One submit_read per attempt. Its completion writes only that attempt,
  // which it shares: a grant arriving after read() gave the attempt up (or
  // returned) changes nothing the client still looks at.
  struct Attempt {
    ServerId server = kNoServer;
    bool done = false;
    bool rejected = false;
    CommandResult result;
  };
  std::shared_ptr<Attempt> attempt;
  while (cluster_.loop().now() < deadline) {
    if (!attempt || attempt->rejected) {
      // (Re)issue through whatever leads now; a rejection means the previous
      // leadership ended before confirming the batch.
      attempt.reset();
      const ServerId leader = cluster_.leader();
      if (leader != kNoServer) {
        auto next = std::make_shared<Attempt>();
        next->server = leader;
        // Grants arrive after the same pump applied every newly committed
        // entry, so peeking the serving replica's store here observes a
        // state at least as fresh as the grant's read index. A lease grant
        // completes inside submit_read, in the same virtual instant.
        const auto done = [this, next, key](const raft::ReadGrant& grant) {
          if (!grant.ok) {
            next->rejected = true;
            return;
          }
          const auto value = stores_.at(next->server)->peek(key);
          next->result.ok = value.has_value();
          next->result.value = value.value_or("");
          next->done = true;
        };
        if (cluster_.submit_read(leader, done)) attempt = std::move(next);
      }
    }
    if (attempt && attempt->done) return attempt->result;
    // A crashed leader never answers; cap the wait so the retry loop can
    // re-route instead of sleeping out the whole deadline.
    cluster_.loop().run_until(std::min(deadline, cluster_.loop().now() + from_ms(100)));
    if (attempt && attempt->server != cluster_.leader() && !attempt->done) {
      attempt->rejected = true;  // leadership moved; re-issue
    }
  }
  if (attempt && attempt->done) return attempt->result;
  return std::nullopt;
}

std::optional<CommandResult> KvCluster::run(Command cmd, Duration timeout) {
  cmd.client_id = client_id_;
  cmd.sequence = next_sequence_++;
  const auto session_key = std::make_pair(cmd.client_id, cmd.sequence);
  const auto bytes = encode_command(cmd);
  const TimePoint deadline = cluster_.loop().now() + timeout;

  auto find_result = [&]() -> std::optional<CommandResult> {
    // Applied on any replica implies committed.
    for (const auto& [id, by_session] : results_) {
      const auto it = by_session.find(session_key);
      if (it != by_session.end()) return it->second;
    }
    return std::nullopt;
  };

  // Submit to the current leader; when leadership moves, resubmit through
  // the new leader (the original entry may have been truncated). Session
  // dedup in KvStore makes resubmission exactly-once.
  ServerId submitted_to = kNoServer;
  while (cluster_.loop().now() < deadline) {
    if (auto r = find_result()) return r;
    const ServerId leader = cluster_.leader();
    if (leader != kNoServer && leader != submitted_to) {
      if (cluster_.node(leader).submit(bytes, cluster_.loop().now())) {
        submitted_to = leader;
        cluster_.pump(leader);
      }
    }
    cluster_.loop().run_until(std::min(deadline, cluster_.loop().now() + from_ms(100)));
  }
  return find_result();
}

}  // namespace escape::kv
