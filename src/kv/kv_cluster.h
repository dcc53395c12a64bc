// Replicated KV service over a simulated cluster.
//
// KvCluster glues a SimCluster to one KvStore per replica and provides a
// synchronous client: each operation is stamped with a session sequence,
// submitted through the current leader, retried across leader failovers, and
// returns the state-machine output once the entry commits. This is the
// level of API a downstream application would use.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "kv/kv_command.h"
#include "kv/kv_store.h"
#include "sim/sim_cluster.h"

namespace escape::kv {

class KvCluster {
 public:
  /// Wraps `cluster` (which must outlive this object). Installs the apply
  /// hook; nothing else may install one on the same cluster.
  explicit KvCluster(sim::SimCluster& cluster);

  /// Synchronous client operations; each drives the simulation until the
  /// command commits or `timeout` virtual time elapses. Leader failovers are
  /// retried transparently; duplicates are absorbed by session dedup.
  std::optional<CommandResult> put(const std::string& key, const std::string& value,
                                   Duration timeout = from_ms(60'000));
  std::optional<CommandResult> get(const std::string& key, Duration timeout = from_ms(60'000));
  std::optional<CommandResult> del(const std::string& key, Duration timeout = from_ms(60'000));
  std::optional<CommandResult> cas(const std::string& key, const std::string& expected,
                                   const std::string& value, Duration timeout = from_ms(60'000));

  /// Linearizable read over the fast path: served from the leader's local
  /// store under its lease (zero messages) or after one ReadIndex
  /// confirmation round — never through the replicated log, unlike get().
  /// Retried across leader failovers and rejections until `timeout` virtual
  /// time elapses. `ok` is false when the key is absent (like get()).
  std::optional<CommandResult> read(const std::string& key, Duration timeout = from_ms(60'000));

  /// The replica-local store of one member (inspection in tests/examples).
  const KvStore& store(ServerId id) const { return *stores_.at(id); }

  sim::SimCluster& cluster() { return cluster_; }

 private:
  std::optional<CommandResult> run(Command cmd, Duration timeout);

  sim::SimCluster& cluster_;
  std::map<ServerId, std::unique_ptr<KvStore>> stores_;
  std::map<ServerId, LogIndex> last_applied_;
  std::map<ServerId, std::map<std::pair<std::uint64_t, std::uint64_t>, CommandResult>> results_;
  std::uint64_t client_id_ = 1;
  std::uint64_t next_sequence_ = 1;
};

}  // namespace escape::kv
