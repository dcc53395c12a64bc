#include "shard/sharded_cluster.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"

namespace escape::shard {

ShardedCluster::ShardedCluster(ShardedClusterOptions options)
    : options_(std::move(options)),
      router_({options_.shards, options_.vnodes_per_shard}) {
  if (options_.shards == 0) throw std::invalid_argument("need at least one shard");
  if (options_.hosts == 0) throw std::invalid_argument("need at least one host");
  groups_.reserve(options_.shards);
  for (ShardId shard = 0; shard < options_.shards; ++shard) {
    sim::ClusterOptions group_options;
    group_options.size = options_.hosts;
    group_options.policy = options_.policy;
    group_options.node = options_.node;
    group_options.network = options_.network;
    // Independent deterministic randomness per group (elections, network
    // jitter), all derived from one deployment seed.
    group_options.seed = stream_seed(options_.seed, shard);
    group_options.snapshot_interval = options_.snapshot_interval;
    group_options.loop = &loop_;
    groups_.push_back(std::make_unique<sim::SimCluster>(std::move(group_options)));
  }
}

void ShardedCluster::start_all() {
  for (auto& group : groups_) group->start_all();
}

std::size_t ShardedCluster::leaders_on(ServerId host) const {
  std::size_t count = 0;
  for (const auto& group : groups_) {
    if (group->leader() == host) ++count;
  }
  return count;
}

void ShardedCluster::run_for(Duration d) { loop_.run_until(loop_.now() + d); }

bool ShardedCluster::run_until_all_leaders(TimePoint deadline) {
  auto all_led = [&] {
    return std::all_of(groups_.begin(), groups_.end(),
                       [](const auto& g) { return g->leader() != kNoServer; });
  };
  // Step the shared loop in slices: per-group stop predicates would fight
  // over the one loop, and elections resolve within a few slices anyway.
  while (!all_led() && loop_.now() < deadline) {
    loop_.run_until(std::min(deadline, loop_.now() + from_ms(200)));
  }
  return all_led();
}

bool ShardedCluster::bootstrap_all(Duration max_wait, Duration settle) {
  start_all();
  if (!run_until_all_leaders(loop_.now() + max_wait)) return false;
  run_for(settle);
  // Settling can itself reshuffle a leadership; require a led steady state.
  return run_until_all_leaders(loop_.now() + max_wait);
}

bool ShardedCluster::place_leader(ShardId shard, ServerId host, Duration max_wait) {
  auto& g = group(shard);
  const TimePoint deadline = loop_.now() + max_wait;
  while (loop_.now() < deadline) {
    const ServerId l = g.leader();
    if (l == host) return true;
    if (l != kNoServer && g.alive(host)) {
      // TimeoutNow-based: the target campaigns immediately once caught up;
      // when it is not caught up yet, transfer refuses and we retry after
      // replication progresses.
      g.node(l).transfer_leadership(host, loop_.now());
      g.pump(l);
    }
    loop_.run_until(std::min(deadline, loop_.now() + from_ms(500)));
  }
  return g.leader() == host;
}

std::size_t ShardedCluster::spread_leaders(Duration max_wait) {
  std::size_t placed = 0;
  for (ShardId shard = 0; shard < shards(); ++shard) {
    if (place_leader(shard, default_placement(shard), max_wait)) ++placed;
  }
  return placed;
}

std::size_t ShardedCluster::pack_leaders(ServerId host, std::size_t count, Duration max_wait) {
  std::size_t placed = 0;
  for (ShardId shard = 0; shard < shards() && shard < count; ++shard) {
    if (place_leader(shard, host, max_wait)) ++placed;
  }
  return placed;
}

bool ShardedCluster::join_host(ServerId host, Duration max_wait) {
  for (auto& group : groups_) {
    bool present = false;
    for (const ServerId m : group->members()) present = present || m == host;
    if (!present) group->add_host(host);
  }
  const TimePoint deadline = loop_.now() + max_wait;
  const auto settled = [&](sim::SimCluster& g) {
    const ServerId l = g.leader();
    if (l == kNoServer) return false;
    const auto& m = g.node(l).membership();
    return m.is_voter(host) && !m.joint();
  };
  // Same state machine as the sim's JoinServer action, but stepping the
  // shared loop directly: re-derive each group's phase from its leader's
  // membership every slice, so kBusy windows, leader changes and snapshot
  // catch-up all land on a retry.
  while (loop_.now() < deadline) {
    bool all = true;
    for (auto& group : groups_) {
      if (settled(*group)) continue;
      all = false;
      const ServerId l = group->leader();
      if (l == kNoServer) continue;
      const auto& m = group->node(l).membership();
      if (m.is_voter(host)) continue;  // joint config resolving
      group->propose_conf_change({m.is_learner(host) ? rpc::ConfChangeOp::kPromote
                                                     : rpc::ConfChangeOp::kAddLearner,
                                  host});
    }
    if (all) return true;
    loop_.run_until(std::min(deadline, loop_.now() + from_ms(200)));
  }
  return std::all_of(groups_.begin(), groups_.end(),
                     [&](const auto& g) { return settled(*g); });
}

bool ShardedCluster::remove_host(ServerId host, Duration max_wait) {
  const TimePoint deadline = loop_.now() + max_wait;
  const auto gone = [&](sim::SimCluster& g) {
    const ServerId l = g.leader();
    if (l == kNoServer) return false;
    const auto& m = g.node(l).membership();
    return !m.contains(host) && !m.joint();
  };
  while (loop_.now() < deadline) {
    bool all = true;
    for (auto& group : groups_) {
      if (gone(*group)) continue;
      all = false;
      const ServerId l = group->leader();
      if (l == kNoServer) continue;
      if (!group->node(l).membership().joint()) {
        group->propose_conf_change({rpc::ConfChangeOp::kRemove, host});
      }
    }
    if (all) return true;
    loop_.run_until(std::min(deadline, loop_.now() + from_ms(200)));
  }
  return std::all_of(groups_.begin(), groups_.end(),
                     [&](const auto& g) { return gone(*g); });
}

void ShardedCluster::crash_host(ServerId host) {
  for (auto& group : groups_) {
    if (group->alive(host)) group->crash(host);
  }
}

void ShardedCluster::recover_host(ServerId host) {
  for (auto& group : groups_) {
    if (!group->alive(host)) group->recover(host);
  }
}

bool ShardedCluster::host_alive(ServerId host) const {
  return std::all_of(groups_.begin(), groups_.end(),
                     [host](const auto& g) { return g->alive(host); });
}

}  // namespace escape::shard
