#include "net/real_cluster.h"

#include <algorithm>

namespace escape::net {
namespace {

std::vector<ServerId> members_of(const std::map<ServerId, std::uint16_t>& endpoints) {
  std::vector<ServerId> members;
  for (const auto& [member, port] : endpoints) members.push_back(member);
  return members;
}

}  // namespace

Stores open_stores(ServerId id, const std::string& data_dir) {
  Stores stores;
  if (data_dir.empty()) {
    stores.state = std::make_unique<storage::MemoryStateStore>();
    stores.wal = std::make_unique<storage::NullWal>();
    stores.snapshots = std::make_unique<storage::MemorySnapshotStore>();
  } else {
    const std::string base = data_dir + "/" + server_name(id);
    stores.state = std::make_unique<storage::FileStateStore>(base + ".state");
    stores.wal = std::make_unique<storage::FileWal>(base + ".wal");
    stores.snapshots = std::make_unique<storage::FileSnapshotStore>(base + ".snap");
  }
  return stores;
}

// --- Replica -----------------------------------------------------------------

Replica::Replica(ServerId id, const std::vector<ServerId>& members,
                 std::unique_ptr<raft::ElectionPolicy> policy, Rng rng,
                 const raft::NodeOptions& options, Stores& stores)
    : driver_(*stores.state, *stores.wal, stores.snapshots.get()),
      node_(id, members, std::move(policy), std::move(rng), options, driver_.recover()) {
  driver_.attach(node_);
}

void Replica::start(TimePoint now) {
  // Rebuild the application state machine from the stored snapshot before
  // any entry beyond it can reach the apply hook.
  const auto snap = node_.snapshot();
  if (snap && snap->last_included_index > 0 && hooks().restore) hooks().restore(snap);
  node_.start(now);
}

void Replica::pump(TimePoint now) {
  driver_.pump();
  if (!snapshot_hook_) return;
  const auto snap = node_.snapshot();
  const std::size_t threshold =
      std::max(kCompactionRatio * (snap ? snap->state.size() : 0), kMinCompactionBytes);
  if (node_.log().approx_bytes() < threshold || driver_.applied() <= node_.log().base()) return;
  // The drain just handed every committed entry to the hooks, so the state
  // machine sits exactly at driver_.applied(). The core may have committed
  // further entries meanwhile; compact() takes the boundary we pass, never
  // its own last_applied().
  if (node_.compact(driver_.applied(), snapshot_hook_(), now)) driver_.pump();
}

// --- RealNode ----------------------------------------------------------------

RealNode::RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints,
                   PolicyFactory policy, Options options, Stores stores)
    : id_(id),
      stores_(std::move(stores)),
      replica_(id, members_of(endpoints), policy(id, endpoints.size()),
               Rng(options.seed ^ (0xC0FFEEull + id)), options.node, stores_),
      transport_(
          loop_, id, endpoints,
          [this](std::vector<rpc::Envelope>&& burst) {
            // The whole burst steps in before the tick drains it, so one
            // Ready batch (one group commit) covers it.
            const TimePoint now = clock_.now();
            for (const auto& env : burst) replica_.node().step(env, now);
          },
          BoundListener{options.listen_fd}) {
  replica_.hooks().send = [this](const std::vector<rpc::Envelope>& batch) {
    transport_.send_batch(batch);
    // Onto the sockets now, before the next batch's WAL sync: followers
    // persist this batch while the leader syncs the next one.
    loop_.flush();
  };
  loop_.set_tick([this] { return tick(); });
}

RealNode::RealNode(ServerId id, std::map<ServerId, std::uint16_t> endpoints,
                   PolicyFactory policy, Options options)
    : RealNode(id, std::move(endpoints), std::move(policy), options,
               open_stores(id, options.data_dir)) {}

RealNode::~RealNode() { stop(); }

void RealNode::start() {
  replica_.start(clock_.now());
  loop_.start();
}

void RealNode::stop() { loop_.stop(); }

Duration RealNode::tick() {
  const TimePoint now = clock_.now();
  replica_.node().tick(now);
  replica_.pump(now);
  const TimePoint deadline = replica_.node().next_deadline();
  // Measured after the drain: its fsyncs take real time.
  return deadline == kNever ? kNever : deadline - clock_.now();
}

std::optional<LogIndex> RealNode::submit(std::vector<std::uint8_t> command) {
  return loop().call([&] { return replica_.node().submit(std::move(command), clock_.now()); });
}

std::optional<raft::ReadId> RealNode::submit_read() {
  return loop().call([&] { return replica_.node().submit_read(clock_.now()); });
}

void RealNode::set_apply_hook(std::function<void(const rpc::LogEntry&)> hook) {
  replica_.hooks().apply = std::move(hook);
}

void RealNode::set_read_hook(std::function<void(const raft::ReadGrant&)> hook) {
  replica_.hooks().read = std::move(hook);
}

void RealNode::set_restore_hook(std::function<void(const raft::Snapshot&)> hook) {
  replica_.hooks().restore = [hook = std::move(hook)](const auto& snapshot) { hook(*snapshot); };
}

void RealNode::set_snapshot_hook(std::function<std::vector<std::uint8_t>()> hook) {
  replica_.set_snapshot_hook(std::move(hook));
}

Role RealNode::role() const {
  return loop().call([this] { return replica_.node().role(); });
}

Term RealNode::term() const {
  return loop().call([this] { return replica_.node().term(); });
}

ServerId RealNode::leader_hint() const {
  return loop().call([this] { return replica_.node().leader_hint(); });
}

LogIndex RealNode::commit_index() const {
  return loop().call([this] { return replica_.node().commit_index(); });
}

raft::NodeCounters RealNode::counters() const {
  return loop().call([this] { return replica_.node().counters(); });
}

}  // namespace escape::net
