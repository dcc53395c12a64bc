// Simulated cluster harness.
//
// Hosts N RaftNode cores over a SimNetwork on one EventLoop. Each host pairs
// its core with a raft::NodeDriver over an owned "disk" (MemoryStateStore +
// MemoryWal + MemorySnapshotStore), so crash/recover cycles model a machine
// whose durable state survives process death — and every simulated run
// exercises the same Ready drain the TCP runtime uses. The driver's hooks
// dispatch immediately: sends go straight into the SimNetwork and committed
// entries into the host's replica state, inline, in virtual time. Provides
// the fault injection and measurement hooks the paper's evaluation protocol needs:
// crash/recover, link isolation, event listeners, and stop predicates for
// running the simulation until an election-related condition holds.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "raft/driver.h"
#include "raft/raft_node.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/snapshot_store.h"
#include "storage/state_store.h"
#include "storage/wal.h"

namespace escape::sim {

/// Builds an election policy for one member; invoked once per node
/// construction (including recoveries).
using PolicyFactory =
    std::function<std::unique_ptr<raft::ElectionPolicy>(ServerId id, std::size_t cluster_size)>;

/// Returns a PolicyFactory for vanilla Raft with the given timeout range.
PolicyFactory raft_policy_factory(Duration timeout_min, Duration timeout_max);

struct ClusterOptions {
  std::size_t size = 5;
  PolicyFactory policy;  ///< defaults to Raft with 1500–3000 ms timeouts
  raft::NodeOptions node;
  NetworkOptions network;
  std::uint64_t seed = 42;
  /// External event loop to run on. When null (the default) the cluster owns
  /// a private loop. A sharded deployment passes one shared loop to all of
  /// its groups so they advance through a single virtual timeline — exactly
  /// like independent consensus groups sharing real wall-clock time.
  EventLoop* loop = nullptr;
  /// Automatic log compaction: when > 0, a host snapshots its state machine
  /// and compacts whenever it retains at least this many applied entries
  /// beyond its last snapshot. 0 keeps the whole log (manual
  /// trigger_snapshot() still works).
  LogIndex snapshot_interval = 0;
};

/// A full simulated deployment of `size` consensus servers.
class SimCluster {
 public:
  explicit SimCluster(ClusterOptions options);

  /// Starts every node at the current virtual time. Must be called once.
  void start_all();

  // --- accessors -----------------------------------------------------------
  EventLoop& loop() { return *loop_; }
  SimNetwork& network() { return *network_; }
  bool started() const { return started_; }
  std::uint64_t seed() const { return options_.seed; }
  raft::RaftNode& node(ServerId id);
  const raft::RaftNode& node(ServerId id) const;
  bool alive(ServerId id) const;
  const std::vector<ServerId>& members() const { return members_; }
  std::size_t size() const { return members_.size(); }
  /// Hosts present at construction (the bootstrap voter set). Joined hosts
  /// (add_host) extend members() but never this list.
  std::size_t seed_size() const { return seed_size_; }

  /// The unique alive leader in the highest term, or kNoServer when no alive
  /// node currently leads.
  ServerId leader() const;

  /// Durable state of a host (survives crash/recover).
  storage::MemoryStateStore& state_store(ServerId id) { return *hosts_.at(id).store; }
  storage::MemoryWal& wal(ServerId id) { return *hosts_.at(id).wal; }
  storage::MemorySnapshotStore& snapshot_store(ServerId id) { return *hosts_.at(id).snaps; }

  /// Entries applied (committed) by a host, in order, across incarnations.
  const std::vector<rpc::LogEntry>& applied(ServerId id) const { return hosts_.at(id).applied; }

  // --- membership --------------------------------------------------------------
  /// Provisions a brand-new host (empty disk) and boots it as a self-learner:
  /// it knows only itself, holds no vote, and waits for a leader to replicate
  /// (or snapshot) state into it. Joining the consensus group is a separate
  /// step — propose_conf_change(kAddLearner) makes the leader start feeding
  /// it, kPromote makes it a voter. Mirrors racking a fresh machine before
  /// running the AddServer API against the cluster.
  void add_host(ServerId id);

  /// Routes a configuration change through the current leader. Returns the
  /// core's verdict; status kNotLeader (the default) when the cluster is
  /// leaderless. One change at a time: a kBusy reply means a joint config is
  /// still in flight — retry after it commits.
  raft::RaftNode::ConfChangeResult propose_conf_change(const raft::ConfChange& change);

  // --- fault injection -------------------------------------------------------
  /// Kills a node: it stops processing and loses volatile state; its store
  /// and WAL survive for recover().
  void crash(ServerId id);

  /// Restarts a crashed node from its durable state (including its stored
  /// snapshot, when one exists: the log rebases onto it and the restore hook
  /// rebuilds the application state machine from its payload).
  void recover(ServerId id);

  // --- snapshotting -----------------------------------------------------------
  /// Takes a snapshot of `id` at its applied index and compacts its log and
  /// WAL. Returns the compacted-through index, or nullopt when the node is
  /// down or nothing new is compactable.
  std::optional<LogIndex> trigger_snapshot(ServerId id);

  /// Provider of the serialized application state of `id` at its current
  /// applied index (KvCluster installs one). Unset: snapshots carry an empty
  /// payload — the consensus-level mechanics still work, there is simply no
  /// application state to preserve.
  void set_snapshot_state_hook(std::function<std::vector<std::uint8_t>(ServerId)> hook) {
    snapshot_state_hook_ = std::move(hook);
  }

  /// Invoked when a node installs a leader snapshot mid-run and when a
  /// recovering node boots from a stored one — always *before* any
  /// subsequently committed entries reach the apply hook.
  void set_snapshot_restore_hook(
      std::function<void(ServerId, const storage::Snapshot&)> hook) {
    snapshot_restore_hook_ = std::move(hook);
  }

  // --- driving ----------------------------------------------------------------
  /// Runs until `pred` matches an emitted NodeEvent, or `deadline` passes.
  /// Returns the matching event, or nullopt on timeout.
  std::optional<raft::NodeEvent> run_until_event(
      std::function<bool(const raft::NodeEvent&)> pred, TimePoint deadline);

  /// Runs until some node becomes leader; returns it (kNoServer on timeout).
  ServerId run_until_leader(TimePoint deadline);

  /// Submits a command through the current leader (nullopt when leaderless).
  std::optional<LogIndex> submit_via_leader(std::vector<std::uint8_t> command);

  /// Runs until every alive node has applied index >= `index`.
  bool run_until_applied(LogIndex index, TimePoint deadline);

  // --- linearizable reads -----------------------------------------------------
  /// Submits a linearizable read through node `id` (it must currently lead;
  /// nullopt otherwise or when it is down). Records the read in the probe
  /// ledger with its *commit floor* — the highest commit index any alive
  /// node has at issue time, which is exactly what a linearizable read must
  /// observe — so the InvariantChecker can audit the grant when it fires.
  /// `done`, when set, runs once with this read's grant or rejection, right
  /// after the read listeners: a lease read completes before submit_read
  /// returns, a ReadIndex read on a later pump. A node crash drops it.
  std::optional<raft::ReadId> submit_read(
      ServerId id, std::function<void(const raft::ReadGrant&)> done = {});

  /// Commit floor recorded for an outstanding read probe (see submit_read);
  /// nullopt once granted/rejected or for an unknown ticket.
  std::optional<LogIndex> read_floor(ServerId id, raft::ReadId read) const;

  /// Registers a listener invoked from pump for every read completion,
  /// *after* the same pump applied all newly committed entries — so a
  /// listener (or a submit_read completion) that serves `ok` grants from the
  /// replica state machine always observes state at or beyond the grant's
  /// read index. The InvariantChecker audits through one. The probe ledger
  /// entry is erased right after the listeners and the read's own
  /// completion ran. Returns a handle for remove_read_listener.
  std::size_t add_read_listener(std::function<void(ServerId, const raft::ReadGrant&)> listener);
  void remove_read_listener(std::size_t handle);

  // --- observation -------------------------------------------------------------
  /// Registers a persistent event listener (fires for every NodeEvent).
  /// Returns a handle for remove_event_listener; listeners fire in
  /// registration order.
  std::size_t add_event_listener(std::function<void(const raft::NodeEvent&)> listener);

  /// Detaches a listener registered with add_event_listener. Scenario
  /// machinery (PlanRuntime) attaches per-experiment listeners and must not
  /// leak them into later experiments on the same long-lived cluster.
  void remove_event_listener(std::size_t handle);

  /// Every event emitted since construction (or the last clear), in order.
  const std::vector<raft::NodeEvent>& event_log() const { return event_log_; }

  /// Drops recorded events; long-lived measurement series call this between
  /// runs so scans and memory stay bounded. Listeners are unaffected.
  void clear_event_log() { event_log_.clear(); }

  /// Per-application callback (e.g. to drive a KV state machine).
  void set_apply_hook(std::function<void(ServerId, const rpc::LogEntry&)> hook) {
    apply_hook_ = std::move(hook);
  }

  /// Drains the node's pending Ready batches through its driver and
  /// reschedules its timers. Called automatically after every delivery/tick;
  /// public for tests that poke nodes directly.
  void pump(ServerId id);

  /// The driver consuming a node's Ready batches (tests attach phase hooks
  /// and Ready observers through it). Throws when the node is crashed.
  raft::NodeDriver& driver(ServerId id);

 private:
  struct Host {
    std::unique_ptr<storage::MemoryStateStore> store;
    std::unique_ptr<storage::MemoryWal> wal;
    std::unique_ptr<storage::MemorySnapshotStore> snaps;
    /// Bootstrap membership for this host's incarnations: the seed voter set
    /// for construction-time hosts, {self} as a learner for joined ones.
    /// Durable config entries (log/snapshot) override it on recovery.
    rpc::Membership base;
    /// Per-incarnation Ready consumer; rebuilt (like the node) on recover.
    std::unique_ptr<raft::NodeDriver> driver;
    std::unique_ptr<raft::RaftNode> node;
    bool alive = false;
    TimePoint scheduled_wakeup = kNever;
    std::vector<rpc::LogEntry> applied;
  };

  void build_node(ServerId id);
  void ensure_timer(ServerId id);
  void deliver(const rpc::Envelope& envelope);
  void on_node_event(const raft::NodeEvent& event);

  ClusterOptions options_;
  std::vector<ServerId> members_;
  std::size_t seed_size_ = 0;
  std::unique_ptr<EventLoop> owned_loop_;  ///< null when options_.loop is external
  EventLoop* loop_;
  Rng rng_;
  std::unique_ptr<SimNetwork> network_;
  /// Looked up on every delivery, pump and invariant scan; nothing iterates
  /// it, so a hash map costs no determinism.
  std::unordered_map<ServerId, Host> hosts_;
  std::vector<raft::NodeEvent> event_log_;
  std::map<std::size_t, std::function<void(const raft::NodeEvent&)>> listeners_;
  std::size_t next_listener_handle_ = 0;
  std::function<bool(const raft::NodeEvent&)> stop_predicate_;
  std::optional<raft::NodeEvent> stop_event_;
  std::function<void(ServerId, const rpc::LogEntry&)> apply_hook_;
  std::map<std::size_t, std::function<void(ServerId, const raft::ReadGrant&)>> read_listeners_;
  std::size_t next_read_listener_handle_ = 0;
  std::function<std::vector<std::uint8_t>(ServerId)> snapshot_state_hook_;
  std::function<void(ServerId, const storage::Snapshot&)> snapshot_restore_hook_;
  /// An outstanding read: its commit floor at issue and its completion.
  struct ReadProbe {
    LogIndex floor = 0;
    std::function<void(const raft::ReadGrant&)> done;
  };
  std::map<std::pair<ServerId, raft::ReadId>, ReadProbe> read_probes_;
  bool started_ = false;
};

}  // namespace escape::sim
