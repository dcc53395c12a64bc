#include "net/real_cluster.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace escape::net {

RealNode::RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints,
                   PolicyFactory policy, Options options)
    : id_(id), options_(std::move(options)) {
  std::vector<ServerId> members;
  for (const auto& [member, port] : endpoints) members.push_back(member);

  if (options_.data_dir.empty()) {
    store_ = std::make_unique<storage::MemoryStateStore>();
    wal_ = std::make_unique<storage::NullWal>();
    snaps_ = std::make_unique<storage::MemorySnapshotStore>();
  } else {
    const std::string base = options_.data_dir + "/" + server_name(id_);
    store_ = std::make_unique<storage::FileStateStore>(base + ".state");
    wal_ = std::make_unique<storage::FileWal>(base + ".wal");
    snaps_ = std::make_unique<storage::FileSnapshotStore>(base + ".snap");
  }

  driver_io_ = std::make_unique<RealDriver>(*store_, *wal_, snaps_.get());
  auto boot = driver_io_->recover();
  if (boot.snapshot && boot.snapshot->last_included_index > 0) {
    boot_snapshot_ = std::make_shared<const raft::Snapshot>(*boot.snapshot);
  }
  node_ = std::make_unique<raft::RaftNode>(id_, members, policy(id_, members.size()),
                                           Rng(options_.seed ^ (0xC0FFEEull + id_)),
                                           options_.node, std::move(boot));
  driver_io_->attach(*node_);
  TransportOptions topts;
  topts.listen_fd = options_.listen_fd;
  transport_ = std::make_unique<TcpTransport>(id_, endpoints, TcpTransport::DeliverFn{}, topts);
  // Whole-burst delivery: every message of one readiness edge lands in the
  // mailbox under a single lock acquisition, and the driver thread steps
  // them all before pumping Ready batches.
  transport_->set_deliver_batch([this](std::vector<rpc::Envelope>&& batch) {
    {
      std::lock_guard lock(mu_);
      for (auto& env : batch) mailbox_.push_back(std::move(env));
    }
    cv_.notify_one();
  });
}

RealNode::RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints,
                   PolicyFactory policy)
    : RealNode(id, std::move(endpoints), std::move(policy), Options()) {}

RealNode::~RealNode() { stop(); }

void RealNode::start() {
  transport_->start();
  running_.store(true);
  // Rebuild the application state machine from the stored snapshot before
  // any entry beyond it can reach the apply hook. Outside mu_, like every
  // hook: the application takes its own locks inside (KvServer's are taken
  // before mu_), and the driver thread does not run yet.
  if (boot_snapshot_) {
    snapshot_bytes_ = boot_snapshot_->state.size();
    std::function<void(const raft::Snapshot&)> restore;
    {
      std::lock_guard lock(mu_);
      restore = restore_hook_;
    }
    if (restore) restore(*boot_snapshot_);
  }
  {
    std::lock_guard lock(mu_);
    node_->start(clock_.now());
  }
  driver_ = std::thread([this] { run_loop(); });
}

void RealNode::stop() {
  if (!running_.exchange(false)) return;
  cv_.notify_all();
  if (driver_.joinable()) driver_.join();
  transport_->stop();
}

std::optional<LogIndex> RealNode::submit(std::vector<std::uint8_t> command) {
  std::optional<LogIndex> index;
  {
    std::lock_guard lock(mu_);
    index = node_->submit(std::move(command), clock_.now());
  }
  cv_.notify_one();  // the driver thread persists + ships the Ready batch
  return index;
}

std::optional<raft::ReadId> RealNode::submit_read() {
  std::optional<raft::ReadId> read;
  {
    std::lock_guard lock(mu_);
    read = node_->submit_read(clock_.now());
  }
  cv_.notify_one();  // the driver drains the round / any lease grant
  return read;
}

void RealNode::set_apply_hook(std::function<void(const rpc::LogEntry&)> hook) {
  std::lock_guard lock(mu_);
  apply_hook_ = std::move(hook);
}

void RealNode::set_read_hook(std::function<void(const raft::ReadGrant&)> hook) {
  std::lock_guard lock(mu_);
  read_hook_ = std::move(hook);
}

void RealNode::set_restore_hook(std::function<void(const raft::Snapshot&)> hook) {
  std::lock_guard lock(mu_);
  restore_hook_ = std::move(hook);
}

void RealNode::set_snapshot_hook(std::function<std::vector<std::uint8_t>()> hook) {
  std::lock_guard lock(mu_);
  snapshot_hook_ = std::move(hook);
}

Role RealNode::role() const {
  std::lock_guard lock(mu_);
  return node_->role();
}

Term RealNode::term() const {
  std::lock_guard lock(mu_);
  return node_->term();
}

ServerId RealNode::leader_hint() const {
  std::lock_guard lock(mu_);
  return node_->leader_hint();
}

LogIndex RealNode::commit_index() const {
  std::lock_guard lock(mu_);
  return node_->commit_index();
}

raft::NodeCounters RealNode::counters() const {
  std::lock_guard lock(mu_);
  return node_->counters();
}

std::uint16_t RealNode::listen_port() const { return transport_->port(); }

void RealNode::run_loop() {
  using namespace std::chrono;
  RealDriver::Effects effects;
  while (running_.load()) {
    {
      std::unique_lock lock(mu_);
      if (mailbox_.empty() && !node_->has_ready()) {
        // Sleep until the next timer deadline (bounded so shutdown and
        // clock drift are handled), or until a message arrives.
        const TimePoint deadline = node_->next_deadline();
        Duration wait_us = deadline == kNever ? from_ms(100) : deadline - clock_.now();
        wait_us = std::clamp<Duration>(wait_us, 0, from_ms(100));
        cv_.wait_for(lock, microseconds(wait_us));
      }
      if (!running_.load()) break;
      while (!mailbox_.empty()) {
        const rpc::Envelope env = std::move(mailbox_.front());
        mailbox_.pop_front();
        node_->step(env, clock_.now());
      }
      node_->tick(clock_.now());
    }
    // Drain the pending Ready batches one flush unit at a time: persistence
    // runs under the lock (pump_unit merges consecutive message-only batches
    // so a replication fan-out ships as one send_batch), the
    // environment-facing effects flush outside it in the mandatory order —
    // send, restore, apply, grant.
    LogIndex handed = 0;  // last index handed to the restore/apply hooks
    for (;;) {
      effects.clear();
      bool drained = false;
      std::function<void(const rpc::LogEntry&)> hook;
      std::function<void(const raft::ReadGrant&)> read_hook;
      std::function<void(const raft::Snapshot&)> restore_hook;
      {
        std::lock_guard lock(mu_);
        drained = driver_io_->pump_unit(effects);
        hook = apply_hook_;
        read_hook = read_hook_;
        restore_hook = restore_hook_;
      }
      if (!drained) break;
      transport_->send_batch(effects.messages);
      if (effects.restore) {
        handed = effects.restore->last_included_index;
        snapshot_bytes_ = effects.restore->state.size();
        if (restore_hook) restore_hook(*effects.restore);
      }
      if (!effects.committed.empty()) {
        if (hook) {
          for (const auto& entry : effects.committed) hook(entry);
        }
        handed = effects.committed.back().index;
      }
      // Strictly after the entries: an `ok` grant promises the state machine
      // the read hook serves from already covers its read index.
      if (read_hook) {
        for (const auto& grant : effects.read_grants) read_hook(grant);
      }
    }
    if (handed > 0) maybe_compact(handed);
  }
}

void RealNode::maybe_compact(LogIndex applied) {
  std::function<std::vector<std::uint8_t>()> hook;
  {
    std::lock_guard lock(mu_);
    const std::size_t threshold = std::max(kCompactionRatio * snapshot_bytes_, kMinCompactionBytes);
    if (!snapshot_hook_ || node_->log().approx_bytes() < threshold) return;
    hook = snapshot_hook_;
  }
  // Outside the lock: the state machine belongs to this thread, and it sits
  // at `applied` until this thread drains again. The core may have committed
  // further entries meanwhile; compact() takes the boundary we pass, never
  // its own last_applied().
  auto state = hook();
  const std::size_t bytes = state.size();
  std::lock_guard lock(mu_);
  if (node_->compact(applied, std::move(state), clock_.now())) snapshot_bytes_ = bytes;
}

}  // namespace escape::net
