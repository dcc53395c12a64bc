// Real-time runtime: one consensus server over TCP and steady_clock, on one
// thread.
//
// A RealNode owns its replica's one EventLoop and runs a Replica — the
// core, its durable stores and the NodeDriver that executes its Ready
// batches — on it, the shape tarantool's raft_ev gives its core:
//
//   * peers: the raft TcpTransport is one service on the loop; every
//     message of a readiness burst is stepped straight into the core from
//     its deliver callback. Other protocols attach as further services the
//     same way (KvServer's client listener);
//   * timers: the loop's tick fires due timers, drains, and lets the loop
//     sleep until the core's next deadline;
//   * drain: batches execute through raft::NodeDriver with immediate hooks,
//     exactly as in the simulator. Each batch's messages are written to
//     their sockets before the next batch's WAL sync, so followers persist
//     batch N while the leader syncs batch N+1.
//
// The loop thread is the only thread that touches the replica, so it needs
// no lock. The public API stays thread-safe: submit, submit_read and the
// state getters run through loop().call — inline on the loop thread (hooks
// may call back into the node), posted and waited for from other threads,
// and inline again once the node is stopped (counters() after stop()
// returns the last values).
//
// Compaction: after each drain the replica compares the retained log with
// the latest snapshot. When log().approx_bytes() reaches
// max(kCompactionRatio x snapshot bytes, kMinCompactionBytes), it asks the
// snapshot hook for the state machine and calls RaftNode::compact at the
// last index handed to the hooks, then drains the snapshot save and the WAL
// rollover. Memory, WAL size and restart time then follow the state, not
// the history.
//
// This is the deployment path a downstream user runs on a real cluster, and
// the one perfbench and fig16 measure; fig09–fig15 use the simulator instead
// (determinism and virtual time).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/tcp_transport.h"
#include "raft/driver.h"
#include "raft/raft_node.h"
#include "storage/snapshot_store.h"
#include "storage/state_store.h"
#include "storage/wal.h"

namespace escape::net {

/// Builds an election policy for a member (same shape as sim::PolicyFactory).
using PolicyFactory =
    std::function<std::unique_ptr<raft::ElectionPolicy>(ServerId id, std::size_t cluster_size)>;

/// A replica's durable identity.
struct Stores {
  std::unique_ptr<storage::StateStore> state;
  std::unique_ptr<storage::Wal> wal;
  std::unique_ptr<storage::SnapshotStore> snapshots;
};

/// Volatile in-memory stores when `data_dir` is empty; otherwise
/// `<data_dir>/S<id>.state`, `<data_dir>/S<id>.snap` and the WAL
/// `<data_dir>/S<id>.wal` plus its rolled segments `S<id>.wal.<seq>`.
Stores open_stores(ServerId id, const std::string& data_dir);

/// What a RealNode runs on its loop thread, with no sockets, threads or
/// clock of its own: a core recovered from durable stores, the NodeDriver
/// that executes its Ready batches with immediate hooks, and compaction.
/// Single-threaded. driver_conformance_test drives one on virtual time with
/// a fake send sink.
class Replica {
 public:
  /// Compact when the retained log reaches this multiple of the latest
  /// snapshot's state (LogCabin's default ratio)...
  static constexpr std::size_t kCompactionRatio = 4;
  /// ...but never below this many bytes, so a tiny state machine does not
  /// snapshot on every few entries.
  static constexpr std::size_t kMinCompactionBytes = 64 * 1024;

  /// Recovers the core from `stores`, which must outlive the replica.
  Replica(ServerId id, const std::vector<ServerId>& members,
          std::unique_ptr<raft::ElectionPolicy> policy, Rng rng,
          const raft::NodeOptions& options, Stores& stores);

  /// Environment hooks (send, restore, apply, read). Set before start().
  raft::NodeDriver::Hooks& hooks() { return driver_.hooks(); }

  /// Serializes the application state machine for a compaction: it must
  /// return the state after exactly the entries the apply hook has seen.
  /// Unset: the replica never compacts its own log. Set before start().
  void set_snapshot_hook(std::function<std::vector<std::uint8_t>()> hook) {
    snapshot_hook_ = std::move(hook);
  }

  /// Hands a stored snapshot (if the stores held one) to the restore hook,
  /// then starts the core.
  void start(TimePoint now);

  /// Drains every pending Ready batch, then compacts when the retained log
  /// outgrew the latest snapshot and drains the compaction too.
  void pump(TimePoint now);

  raft::RaftNode& node() { return node_; }
  const raft::RaftNode& node() const { return node_; }

 private:
  raft::NodeDriver driver_;
  raft::RaftNode node_;
  std::function<std::vector<std::uint8_t>()> snapshot_hook_;
};

class RealNode {
 public:
  struct Options {
    Options() { node.commit_noop_on_elect = true; }  // production semantics

    raft::NodeOptions node;
    /// Where durable state lives (see open_stores); empty: volatile
    /// in-memory stores.
    std::string data_dir;
    std::uint64_t seed = 1;
    /// Pre-bound raft listening socket to adopt (port-0 path; see
    /// bind_loopback_listener). When < 0, the constructor binds
    /// endpoints[id] itself.
    int listen_fd = -1;
  };

  /// `endpoints` maps every member (including `id`) to a 127.0.0.1 port.
  /// Binds (or adopts) the raft listener; throws std::runtime_error when the
  /// bind fails.
  RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints, PolicyFactory policy,
           Options options);
  /// As above, over caller-supplied stores instead of options.data_dir.
  RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints, PolicyFactory policy,
           Options options, Stores stores);
  ~RealNode();

  RealNode(const RealNode&) = delete;
  RealNode& operator=(const RealNode&) = delete;

  /// Starts the core (after the restore hook rebuilt the state machine from
  /// a stored snapshot), then launches the loop thread.
  void start();

  /// Stops the loop thread and closes every socket of every service on it.
  /// Idempotent and terminal.
  void stop();

  /// Thread-safe command submission (leader only; nullopt otherwise). The
  /// tick ending the loop iteration persists and ships the batch.
  std::optional<LogIndex> submit(std::vector<std::uint8_t> command);

  /// Thread-safe linearizable-read submission (leader only; nullopt
  /// otherwise — redirect via leader_hint()). The completion arrives on the
  /// loop thread through the read hook, after every committed entry up to
  /// the grant's read index was handed to the apply hook; an `ok` grant
  /// therefore licenses serving the read from the local state machine.
  std::optional<raft::ReadId> submit_read();

  // Hooks run on the loop thread; set them before start().

  /// Invoked for every committed entry.
  void set_apply_hook(std::function<void(const rpc::LogEntry&)> hook);

  /// Invoked for every read grant/rejection.
  void set_read_hook(std::function<void(const raft::ReadGrant&)> hook);

  /// Invoked when a leader snapshot supersedes this node's log — rebuild the
  /// application state machine from it before the next apply. Also fired
  /// from start() when the node boots from a stored snapshot.
  void set_restore_hook(std::function<void(const raft::Snapshot&)> hook);

  /// See Replica::set_snapshot_hook.
  void set_snapshot_hook(std::function<std::vector<std::uint8_t>()> hook);

  // Thread-safe snapshots of node state (loop().call).
  Role role() const;
  Term term() const;
  ServerId leader_hint() const;
  LogIndex commit_index() const;
  raft::NodeCounters counters() const;
  ServerId id() const { return id_; }

  /// Stats of the raft peer connections only.
  const EventLoopStats& raft_stats() const { return loop_.stats(transport_.service()); }

  /// The replica's event loop (KvServer adds its client service to it).
  EventLoop& loop() { return loop_; }
  const EventLoop& loop() const { return loop_; }

 private:
  /// The loop's tick: fires due timers, drains, returns the time until the
  /// core's next deadline.
  Duration tick();

  const ServerId id_;
  SteadyClock clock_;
  /// The replica's one thread; ~RealNode stops it before any member goes.
  EventLoop loop_;
  Stores stores_;
  Replica replica_;         // loop thread only while the loop runs
  TcpTransport transport_;  // a service on loop_
};

}  // namespace escape::net
