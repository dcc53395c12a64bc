// Real-time runtime: one consensus server over TCP and steady_clock.
//
// RealNode wires a RaftNode core to a TcpTransport and a driver thread.
// Inbound messages land in a mailbox from the transport's poll thread; the
// driver thread drains the mailbox and fires due timers under the node lock,
// then consumes the resulting Ready batches through a RealDriver —
// persistence under the lock, transport sends / applies / read grants
// flushed outside it — so the consensus core itself stays single-threaded
// and performs no I/O, exactly as in the simulator.
//
// Compaction: once a drain has handed every committed entry to the apply
// hook, the driver thread compares the retained log with the latest
// snapshot. When log().approx_bytes() reaches
// max(kCompactionRatio x snapshot bytes, kMinCompactionBytes), it asks the
// snapshot hook for the state machine and calls RaftNode::compact at the
// last index handed to the hooks; the next drain persists the snapshot and
// rolls the WAL. Memory, WAL size and restart time then follow the state,
// not the history.
//
// This is the deployment path a downstream user runs on a real cluster, and
// the one perfbench and fig16 measure; fig09–fig15 use the simulator instead
// (determinism and virtual time).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/clock.h"
#include "net/real_driver.h"
#include "net/tcp_transport.h"
#include "raft/raft_node.h"
#include "storage/snapshot_store.h"
#include "storage/state_store.h"
#include "storage/wal.h"

namespace escape::net {

/// Builds an election policy for a member (same shape as sim::PolicyFactory).
using PolicyFactory =
    std::function<std::unique_ptr<raft::ElectionPolicy>(ServerId id, std::size_t cluster_size)>;

class RealNode {
 public:
  /// Compact when the retained log reaches this multiple of the latest
  /// snapshot's state (LogCabin's default ratio)...
  static constexpr std::size_t kCompactionRatio = 4;
  /// ...but never below this many bytes, so a tiny state machine does not
  /// snapshot on every few entries.
  static constexpr std::size_t kMinCompactionBytes = 64 * 1024;

  struct Options {
    Options() { node.commit_noop_on_elect = true; }  // production semantics

    raft::NodeOptions node;
    /// When non-empty, durable state lives in `<data_dir>/S<id>.state`,
    /// `<data_dir>/S<id>.snap` and the WAL `<data_dir>/S<id>.wal` plus its
    /// rolled segments `S<id>.wal.<seq>`; otherwise volatile in-memory
    /// stores are used.
    std::string data_dir;
    std::uint64_t seed = 1;
    /// Pre-bound listening socket to adopt (port-0 path; see
    /// bind_loopback_listener). When < 0, the transport binds
    /// endpoints[id] itself in start().
    int listen_fd = -1;
  };

  /// `endpoints` maps every member (including `id`) to a 127.0.0.1 port.
  RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints, PolicyFactory policy,
           Options options);
  RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints, PolicyFactory policy);
  ~RealNode();

  RealNode(const RealNode&) = delete;
  RealNode& operator=(const RealNode&) = delete;

  /// Binds the transport and launches the driver thread.
  void start();

  /// Stops the driver thread and transport. Idempotent.
  void stop();

  /// Thread-safe command submission (leader only; nullopt otherwise).
  std::optional<LogIndex> submit(std::vector<std::uint8_t> command);

  /// Thread-safe linearizable-read submission (leader only; nullopt
  /// otherwise — redirect via leader_hint()). The completion arrives on the
  /// driver thread through the read hook, after every committed entry up to
  /// the grant's read index was handed to the apply hook; an `ok` grant
  /// therefore licenses serving the read from the local state machine.
  std::optional<raft::ReadId> submit_read();

  /// Hook invoked (on the driver thread) for every committed entry.
  void set_apply_hook(std::function<void(const rpc::LogEntry&)> hook);

  /// Hook invoked (on the driver thread) for every read grant/rejection.
  void set_read_hook(std::function<void(const raft::ReadGrant&)> hook);

  /// Hook invoked (on the driver thread) when a leader snapshot supersedes
  /// this node's log — rebuild the application state machine from it before
  /// the next apply. Also fired from start() when the node boots from a
  /// stored snapshot (set the hook before start()).
  void set_restore_hook(std::function<void(const raft::Snapshot&)> hook);

  /// Hook invoked (on the driver thread, between drains) to serialize the
  /// application state machine for a compaction: it must return the state
  /// after exactly the entries the apply hook has seen. Unset: the node
  /// never compacts its own log.
  void set_snapshot_hook(std::function<std::vector<std::uint8_t>()> hook);

  // Thread-safe snapshots of node state.
  Role role() const;
  Term term() const;
  ServerId leader_hint() const;
  LogIndex commit_index() const;
  raft::NodeCounters counters() const;
  ServerId id() const { return id_; }

  /// Port the transport listens on (kernel-assigned with the port-0 path).
  /// Meaningful after start().
  std::uint16_t listen_port() const;

 private:
  void run_loop();
  /// Compacts through `applied` (the last index handed to the apply or
  /// restore hook) when the retained log crossed the threshold.
  void maybe_compact(LogIndex applied);

  const ServerId id_;
  Options options_;
  SteadyClock clock_;

  std::unique_ptr<storage::StateStore> store_;
  std::unique_ptr<storage::Wal> wal_;
  std::unique_ptr<storage::SnapshotStore> snaps_;
  std::unique_ptr<RealDriver> driver_io_;    // guarded by mu_
  std::unique_ptr<raft::RaftNode> node_;     // guarded by mu_
  std::shared_ptr<const raft::Snapshot> boot_snapshot_;  ///< replayed in start()
  std::unique_ptr<TcpTransport> transport_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<rpc::Envelope> mailbox_;
  std::function<void(const rpc::LogEntry&)> apply_hook_;
  std::function<void(const raft::ReadGrant&)> read_hook_;
  std::function<void(const raft::Snapshot&)> restore_hook_;
  std::function<std::vector<std::uint8_t>()> snapshot_hook_;
  /// State size of the latest snapshot (boot, installed or taken); driver
  /// thread only.
  std::size_t snapshot_bytes_ = 0;

  std::thread driver_;
  std::atomic<bool> running_{false};
};

}  // namespace escape::net
