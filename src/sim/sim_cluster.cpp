#include "sim/sim_cluster.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/logging.h"

namespace escape::sim {

PolicyFactory raft_policy_factory(Duration timeout_min, Duration timeout_max) {
  return [=](ServerId, std::size_t) {
    return std::make_unique<raft::RaftRandomizedPolicy>(timeout_min, timeout_max);
  };
}

SimCluster::SimCluster(ClusterOptions options)
    : options_(std::move(options)),
      owned_loop_(options_.loop ? nullptr : std::make_unique<EventLoop>()),
      loop_(options_.loop ? options_.loop : owned_loop_.get()),
      rng_(options_.seed) {
  if (options_.size == 0) throw std::invalid_argument("cluster size must be >= 1");
  if (!options_.policy) options_.policy = raft_policy_factory(from_ms(1500), from_ms(3000));
  for (ServerId id = 1; id <= options_.size; ++id) members_.push_back(id);
  seed_size_ = members_.size();
  network_ = std::make_unique<SimNetwork>(
      *loop_, options_.network, rng_.fork(0xBEEF),
      [this](const rpc::Envelope& env) { deliver(env); });
  for (ServerId id : members_) {
    auto& host = hosts_[id];
    host.store = std::make_unique<storage::MemoryStateStore>();
    host.wal = std::make_unique<storage::MemoryWal>();
    host.snaps = std::make_unique<storage::MemorySnapshotStore>();
    host.base.voters = members_;
  }
}

void SimCluster::build_node(ServerId id) {
  auto& host = hosts_.at(id);
  host.driver = std::make_unique<raft::NodeDriver>(*host.store, *host.wal, host.snaps.get());
  // The policy is parameterized by the host's *bootstrap* voter count (its
  // Eq. 1 starting point); conf entries recovered from the WAL re-parameterize
  // it via on_membership_changed before the node ever ticks.
  host.node = std::make_unique<raft::RaftNode>(
      id, host.base, options_.policy(id, std::max<std::size_t>(1, host.base.voters.size())),
      rng_.fork(0x1000 + id), options_.node, host.driver->recover());
  host.driver->attach(*host.node);
  host.node->set_event_hook([this](const raft::NodeEvent& ev) { on_node_event(ev); });

  // Environment hooks: immediate dispatch into the simulated world.
  auto& hooks = host.driver->hooks();
  hooks.send = [this](const std::vector<rpc::Envelope>& batch) { network_->send_batch(batch); };
  hooks.restore = [this, id](const std::shared_ptr<const raft::Snapshot>& snap) {
    if (snapshot_restore_hook_) snapshot_restore_hook_(id, *snap);
  };
  hooks.apply = [this, id](const rpc::LogEntry& entry) {
    if (apply_hook_) apply_hook_(id, entry);
    hosts_.at(id).applied.push_back(entry);
  };
  // Read completions fire only after the same batch's entries applied: an
  // `ok` grant promises the replica state machine covers read_index.
  hooks.read = [this, id](const raft::ReadGrant& grant) {
    for (std::size_t next = 0;;) {  // erase-safe, as in on_node_event
      const auto it = read_listeners_.lower_bound(next);
      if (it == read_listeners_.end()) break;
      next = it->first + 1;
      it->second(id, grant);
    }
    const auto probe = read_probes_.find({id, grant.id});
    if (probe == read_probes_.end()) return;
    // Moved out first: the completion may submit another read.
    const auto done = std::move(probe->second.done);
    if (done) done(grant);
    read_probes_.erase({id, grant.id});
  };

  host.alive = true;
  host.scheduled_wakeup = kNever;
}

void SimCluster::start_all() {
  if (started_) throw std::logic_error("start_all() called twice");
  started_ = true;
  for (ServerId id : members_) {
    build_node(id);
    hosts_.at(id).node->start(loop_->now());
    pump(id);
  }
}

raft::RaftNode& SimCluster::node(ServerId id) {
  auto& host = hosts_.at(id);
  if (!host.node) throw std::logic_error("node " + server_name(id) + " is crashed");
  return *host.node;
}

const raft::RaftNode& SimCluster::node(ServerId id) const {
  const auto& host = hosts_.at(id);
  if (!host.node) throw std::logic_error("node " + server_name(id) + " is crashed");
  return *host.node;
}

bool SimCluster::alive(ServerId id) const { return hosts_.at(id).alive; }

ServerId SimCluster::leader() const {
  ServerId best = kNoServer;
  Term best_term = -1;
  for (ServerId id : members_) {
    const auto& host = hosts_.at(id);
    if (host.alive && host.node && host.node->role() == Role::kLeader &&
        host.node->term() > best_term) {
      best = id;
      best_term = host.node->term();
    }
  }
  return best;
}

void SimCluster::add_host(ServerId id) {
  if (hosts_.count(id) != 0) throw std::logic_error("add_host: host already exists");
  auto& host = hosts_[id];
  host.store = std::make_unique<storage::MemoryStateStore>();
  host.wal = std::make_unique<storage::MemoryWal>();
  host.snaps = std::make_unique<storage::MemorySnapshotStore>();
  host.base.learners = {id};
  members_.push_back(id);
  if (started_) {
    build_node(id);
    host.node->start(loop_->now());
    LOG_DEBUG(server_name(id) << " provisioned at " << to_ms(loop_->now()) << "ms");
    pump(id);
  }
}

raft::RaftNode::ConfChangeResult SimCluster::propose_conf_change(const raft::ConfChange& change) {
  const ServerId l = leader();
  if (l == kNoServer) return {};  // status defaults to kNotLeader
  const auto result = node(l).propose_conf_change(change, loop_->now());
  pump(l);
  return result;
}

void SimCluster::crash(ServerId id) {
  auto& host = hosts_.at(id);
  if (!host.alive) throw std::logic_error("crash() on a node that is already down");
  host.alive = false;
  host.node.reset();  // volatile state gone; store/wal survive
  host.driver.reset();
  host.scheduled_wakeup = kNever;
  // Outstanding read probes die with the volatile read state they audited.
  read_probes_.erase(read_probes_.lower_bound({id, 0}),
                     read_probes_.upper_bound({id, std::numeric_limits<raft::ReadId>::max()}));
  LOG_DEBUG(server_name(id) << " crashed at " << to_ms(loop_->now()) << "ms");
}

void SimCluster::recover(ServerId id) {
  auto& host = hosts_.at(id);
  if (host.alive) throw std::logic_error("recover() on a live node");
  // The state machine restarts from its last snapshot (when one exists) and
  // replays the WAL suffix beyond it; `applied` tracks the current
  // incarnation's input sequence.
  host.applied.clear();
  build_node(id);
  if (snapshot_restore_hook_) {
    if (const auto snap = host.snaps->load(); snap && snap->last_included_index > 0) {
      snapshot_restore_hook_(id, *snap);
    }
  }
  host.node->start(loop_->now());
  LOG_DEBUG(server_name(id) << " recovered at " << to_ms(loop_->now()) << "ms");
  pump(id);
}

std::optional<LogIndex> SimCluster::trigger_snapshot(ServerId id) {
  auto& host = hosts_.at(id);
  if (!host.alive || !host.node) return std::nullopt;
  auto state = snapshot_state_hook_ ? snapshot_state_hook_(id) : std::vector<std::uint8_t>{};
  const auto upto = host.node->compact(host.node->last_applied(), std::move(state), loop_->now());
  host.driver->pump();  // drain the kSaveSnapshot/kCompactTo ops immediately
  return upto;
}

std::optional<raft::NodeEvent> SimCluster::run_until_event(
    std::function<bool(const raft::NodeEvent&)> pred, TimePoint deadline) {
  stop_predicate_ = std::move(pred);
  stop_event_.reset();
  loop_->run_until_stopped(deadline);
  stop_predicate_ = nullptr;
  return std::exchange(stop_event_, std::nullopt);
}

ServerId SimCluster::run_until_leader(TimePoint deadline) {
  // Fast path: already led.
  if (ServerId l = leader(); l != kNoServer) return l;
  auto ev = run_until_event(
      [](const raft::NodeEvent& e) { return e.kind == raft::NodeEvent::Kind::kBecameLeader; },
      deadline);
  return ev ? ev->node : kNoServer;
}

std::optional<LogIndex> SimCluster::submit_via_leader(std::vector<std::uint8_t> command) {
  const ServerId l = leader();
  if (l == kNoServer) return std::nullopt;
  auto idx = node(l).submit(std::move(command), loop_->now());
  pump(l);
  return idx;
}

std::optional<raft::ReadId> SimCluster::submit_read(
    ServerId id, std::function<void(const raft::ReadGrant&)> done) {
  auto& host = hosts_.at(id);
  if (!host.alive || !host.node) return std::nullopt;
  // The floor is computed *before* the submission so a lease read granted
  // synchronously inside submit_read() is audited against the state of the
  // world at issue time. Any commit index an alive node reports is a lower
  // bound on what has truly committed, so the max over the cluster is the
  // strongest staleness detector available to the checker: a deposed leader
  // serving behind a newer leadership's commits trips it immediately.
  LogIndex floor = 0;
  for (const ServerId member : members_) {
    const auto& h = hosts_.at(member);
    if (h.alive && h.node) floor = std::max(floor, h.node->commit_index());
  }
  const auto read = host.node->submit_read(loop_->now());
  // Recorded before the pump: a lease grant fires inside it.
  if (read) read_probes_[{id, *read}] = ReadProbe{floor, std::move(done)};
  pump(id);
  return read;
}

std::optional<LogIndex> SimCluster::read_floor(ServerId id, raft::ReadId read) const {
  const auto it = read_probes_.find({id, read});
  if (it == read_probes_.end()) return std::nullopt;
  return it->second.floor;
}

bool SimCluster::run_until_applied(LogIndex index, TimePoint deadline) {
  auto all_applied = [&] {
    for (ServerId id : members_) {
      const auto& host = hosts_.at(id);
      if (!host.alive || !host.node) continue;
      // commit_index is updated before the commit event fires, so this
      // predicate is evaluated against fresh state from inside listeners.
      if (host.node->commit_index() < index) return false;
    }
    return true;
  };
  if (all_applied()) return true;
  run_until_event([&](const raft::NodeEvent&) { return all_applied(); }, deadline);
  return all_applied();
}

std::size_t SimCluster::add_event_listener(
    std::function<void(const raft::NodeEvent&)> listener) {
  const std::size_t handle = next_listener_handle_++;
  listeners_.emplace(handle, std::move(listener));
  return handle;
}

void SimCluster::remove_event_listener(std::size_t handle) { listeners_.erase(handle); }

std::size_t SimCluster::add_read_listener(
    std::function<void(ServerId, const raft::ReadGrant&)> listener) {
  const std::size_t handle = next_read_listener_handle_++;
  read_listeners_.emplace(handle, std::move(listener));
  return handle;
}

void SimCluster::remove_read_listener(std::size_t handle) { read_listeners_.erase(handle); }

void SimCluster::pump(ServerId id) {
  auto& host = hosts_.at(id);
  if (!host.alive || !host.node) return;
  host.driver->pump();
  if (options_.snapshot_interval > 0 &&
      host.node->last_applied() - host.node->log().base() >= options_.snapshot_interval) {
    trigger_snapshot(id);
  }
  ensure_timer(id);
}

raft::NodeDriver& SimCluster::driver(ServerId id) {
  auto& host = hosts_.at(id);
  if (!host.driver) throw std::logic_error("node " + server_name(id) + " is crashed");
  return *host.driver;
}

void SimCluster::ensure_timer(ServerId id) {
  auto& host = hosts_.at(id);
  const TimePoint deadline = host.node->next_deadline();
  if (deadline == kNever) return;
  if (deadline >= host.scheduled_wakeup) return;  // earlier wakeup already pending
  host.scheduled_wakeup = deadline;
  loop_->schedule_at(deadline, [this, id, deadline] {
    auto& h = hosts_.at(id);
    if (h.scheduled_wakeup == deadline) h.scheduled_wakeup = kNever;
    if (!h.alive || !h.node) return;
    h.node->tick(loop_->now());
    pump(id);
  });
}

void SimCluster::deliver(const rpc::Envelope& envelope) {
  // A removed-then-forgotten or not-yet-provisioned destination is a machine
  // that does not exist: the network drops the frame on the floor.
  const auto it = hosts_.find(envelope.to);
  if (it == hosts_.end()) return;
  auto& host = it->second;
  if (!host.alive || !host.node) return;  // message to a dead machine
  host.node->step(envelope, loop_->now());
  pump(envelope.to);
}

void SimCluster::on_node_event(const raft::NodeEvent& event) {
  event_log_.push_back(event);
  // A listener may add or remove listeners (including arbitrary others)
  // while handling an event. Handles are monotonically increasing, so
  // re-looking up the next handle after each call is erase-safe without
  // allocating on this hot path; listeners added mid-dispatch (with larger
  // handles) also fire. (Self-removal mid-dispatch is not supported: it
  // would destroy the std::function currently executing.)
  for (std::size_t next = 0;;) {
    const auto it = listeners_.lower_bound(next);
    if (it == listeners_.end()) break;
    next = it->first + 1;
    it->second(event);
  }
  if (stop_predicate_ && stop_predicate_(event)) {
    stop_event_ = event;
    loop_->stop();
  }
}

}  // namespace escape::sim
