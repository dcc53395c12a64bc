// The system under test: three serve::KvServer replicas (each a RealNode
// with FileWal + fsync under one data_dir) on 127.0.0.1, ESCAPE election
// policy, plus the counters the benchmark diffs from outside.
//
// Ports are bound once (port 0) and kept, so a killed replica restarts on
// the same raft and client ports from its own files in data_dir, exactly as
// a crashed process would be restarted by an operator.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "raft/raft_node.h"
#include "serve/kv_server.h"

namespace perfbench {

using escape::ServerId;

/// Counters summed over every replica incarnation, killed ones included.
struct Totals {
  std::uint64_t campaigns = 0;
  std::uint64_t append_entries_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t config_adoptions = 0;
  std::uint64_t lease_reads = 0;
  std::uint64_t read_index_reads = 0;
  std::uint64_t reads_rejected = 0;
  std::uint64_t ae_batches = 0, ae_entries = 0;  ///< append_batch_entries count / sum
  std::uint64_t inflight_samples = 0, inflight_sum = 0;
  std::uint64_t wal_syncs = 0, wal_records = 0;  ///< group syncs / records they covered
  // Client-facing event loops.
  std::uint64_t frames_in = 0, frames_out = 0, bytes_in = 0, bytes_out = 0, wakeups = 0;
  std::uint64_t evicted = 0, decode_errors = 0;

  Totals& operator+=(const Totals& o);
  Totals operator-(const Totals& o) const;
};

class DurableCluster {
 public:
  static constexpr ServerId kSize = 3;

  /// Boots the three replicas with their files under `data_dir`.
  DurableCluster(std::string data_dir, std::uint64_t seed);
  ~DurableCluster();

  DurableCluster(const DurableCluster&) = delete;
  DurableCluster& operator=(const DurableCluster&) = delete;

  /// Polls until some live replica leads; kNoServer after `timeout_ms`.
  ServerId wait_for_leader(double timeout_ms) const;
  ServerId leader() const;

  /// Live replica `id`, or null while it is down.
  escape::serve::KvServer* server(ServerId id) const { return servers_.at(id).get(); }
  const std::map<ServerId, std::uint16_t>& client_ports() const { return client_ports_; }
  const std::string& data_dir() const { return data_dir_; }

  /// Crashes replica `id` (stop and discard; its files stay).
  void kill(ServerId id);

  /// Crashes the leader. Returns it, or kNoServer when no replica leads.
  ServerId kill_leader();

  /// Restarts a killed replica from its files. Returns the milliseconds
  /// spent constructing and starting it (WAL replay included).
  double restart(ServerId id);

  /// Polls until every live replica's commit index equals the highest one;
  /// false after `timeout_ms`.
  bool commits_converge(double timeout_ms) const;

  /// Counters of all incarnations so far.
  Totals totals() const;

 private:
  std::unique_ptr<escape::serve::KvServer> make(ServerId id, int raft_fd, int client_fd);
  static Totals read(escape::serve::KvServer& server);

  const std::string data_dir_;
  const std::uint64_t seed_;
  std::map<ServerId, std::uint16_t> raft_ports_;
  std::map<ServerId, std::uint16_t> client_ports_;
  std::map<ServerId, std::unique_ptr<escape::serve::KvServer>> servers_;
  std::map<ServerId, int> incarnations_;
  Totals retired_;  ///< counters of killed incarnations
};

}  // namespace perfbench
