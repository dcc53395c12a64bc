// Multi-Raft deployment: N independent consensus groups over one host set.
//
// Each shard is a full SimCluster — its own patrol, confClock, leases, WAL,
// snapshot store and log — and all groups share one EventLoop, so the whole
// deployment advances through a single virtual timeline the way co-located
// groups share wall-clock time on real hardware. Host h is ServerId h in
// every group (the multi-Raft colocation model: one machine carries one
// replica of every shard), so crashing a host takes down its replica in all
// groups at once — the failure mode the shard_failover_storm scenario
// measures.
//
// The Ready core is untouched: a shard's RaftNode/driver stack is exactly
// the single-group stack; this layer only composes instances and adds
// host-level fault injection plus leader placement.
#pragma once

#include <memory>
#include <vector>

#include "shard/router.h"
#include "sim/event_loop.h"
#include "sim/sim_cluster.h"

namespace escape::shard {

struct ShardedClusterOptions {
  std::size_t shards = 4;
  std::size_t hosts = 5;
  /// Per-group election policy; defaults (like SimCluster) to randomized
  /// Raft. Pass sim::presets::escape_policy() for ESCAPE groups.
  sim::PolicyFactory policy;
  raft::NodeOptions node;
  sim::NetworkOptions network;
  std::uint64_t seed = 42;
  LogIndex snapshot_interval = 0;
  std::size_t vnodes_per_shard = 64;
};

class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedClusterOptions options);

  /// Starts every group's nodes. Must be called once.
  void start_all();

  // --- accessors -----------------------------------------------------------
  sim::EventLoop& loop() { return loop_; }
  const ShardRouter& router() const { return router_; }
  std::size_t shards() const { return groups_.size(); }
  std::size_t hosts() const { return options_.hosts; }
  sim::SimCluster& group(ShardId shard) { return *groups_.at(shard); }
  const sim::SimCluster& group(ShardId shard) const { return *groups_.at(shard); }
  ShardId shard_of(std::string_view key) const { return router_.shard_of(key); }

  /// Current leader of one shard (kNoServer when leaderless).
  ServerId leader(ShardId shard) const { return group(shard).leader(); }

  /// Number of shards whose current leader lives on `host`.
  std::size_t leaders_on(ServerId host) const;

  // --- driving -------------------------------------------------------------
  /// Advances the shared loop by `d` of virtual time.
  void run_for(Duration d);

  /// Runs until every shard has a leader or `deadline` passes; true when all
  /// groups ended up led.
  bool run_until_all_leaders(TimePoint deadline);

  /// start_all + elections + a settling period, the standard preamble:
  /// returns false when some group failed to elect within `max_wait`.
  bool bootstrap_all(Duration max_wait = from_ms(120'000), Duration settle = from_ms(3'000));

  // --- leader placement ----------------------------------------------------
  /// The host shard `shard`'s leader is steered to by spread_leaders():
  /// round-robin over hosts so no host concentrates leaderships.
  ServerId default_placement(ShardId shard) const {
    return static_cast<ServerId>(shard % options_.hosts) + 1;
  }

  /// Steers shard `shard`'s leadership onto `host` via leadership transfer,
  /// retrying until it lands or `max_wait` elapses. True on success.
  bool place_leader(ShardId shard, ServerId host, Duration max_wait = from_ms(30'000));

  /// Places every shard's leader at its default_placement. Returns the
  /// number of shards whose leader ended up where asked.
  std::size_t spread_leaders(Duration max_wait = from_ms(30'000));

  /// Concentrates the leaders of shards [0, count) onto `host` (the storm
  /// scenario's setup: one machine serving many shard-leaders). Returns how
  /// many landed.
  std::size_t pack_leaders(ServerId host, std::size_t count,
                           Duration max_wait = from_ms(30'000));

  // --- membership ----------------------------------------------------------
  /// Racks a fresh machine and runs the AddServer workflow (learner ->
  /// catch-up -> promote) against *every* group, driving the shared loop
  /// until the host is a settled voter in all of them or `max_wait` elapses.
  /// One machine carries one replica of every shard, so scaling out means N
  /// independent joint-consensus handshakes sharing one timeline. True when
  /// every group settled. Idempotent per group: groups where the host is
  /// already racked (or already a voter) just re-verify.
  bool join_host(ServerId host, Duration max_wait = from_ms(120'000));

  /// Runs RemoveServer against every group until `host` is out of all their
  /// configurations. The machine stays racked (its replicas keep ticking,
  /// harmlessly non-voting) — crash_host afterwards models decommissioning.
  /// Removing a host that currently leads some groups is fine: each such
  /// leader commits Cnew and retires, and the group re-elects. Note
  /// default_placement keeps its original host count; steer leaders
  /// explicitly after a topology change.
  bool remove_host(ServerId host, Duration max_wait = from_ms(120'000));

  // --- host-level faults ---------------------------------------------------
  /// Crashes `host`'s replica in every group where it is up. Volatile state
  /// dies everywhere at once; per-group durable state survives.
  void crash_host(ServerId host);

  /// Recovers `host`'s replica in every group where it is down.
  void recover_host(ServerId host);

  /// True when the host's replica is up in every group (replicas only go
  /// down together via crash_host, so any-group would be equivalent).
  bool host_alive(ServerId host) const;

 private:
  ShardedClusterOptions options_;
  sim::EventLoop loop_;
  ShardRouter router_;
  std::vector<std::unique_ptr<sim::SimCluster>> groups_;
};

}  // namespace escape::shard
