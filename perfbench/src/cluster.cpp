#include "cluster.h"

#include <chrono>
#include <thread>

#include "core/escape_policy.h"
#include "openloop.h"

namespace perfbench {

namespace {

// Election timing of the real-socket harnesses (fig16): ESCAPE's Eq. 1
// ladder from 300 ms in 150 ms steps, 60 ms heartbeats.
escape::net::PolicyFactory escape_policy() {
  escape::core::EscapeOptions opts;
  opts.base_time = escape::from_ms(300);
  opts.gap = escape::from_ms(150);
  return [opts](ServerId id, std::size_t n) {
    return std::make_unique<escape::core::EscapePolicy>(id, n, opts);
  };
}

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

}  // namespace

Totals& Totals::operator+=(const Totals& o) {
  campaigns += o.campaigns;
  append_entries_sent += o.append_entries_sent;
  messages_received += o.messages_received;
  config_adoptions += o.config_adoptions;
  lease_reads += o.lease_reads;
  read_index_reads += o.read_index_reads;
  reads_rejected += o.reads_rejected;
  ae_batches += o.ae_batches;
  ae_entries += o.ae_entries;
  inflight_samples += o.inflight_samples;
  inflight_sum += o.inflight_sum;
  wal_syncs += o.wal_syncs;
  wal_records += o.wal_records;
  frames_in += o.frames_in;
  frames_out += o.frames_out;
  bytes_in += o.bytes_in;
  bytes_out += o.bytes_out;
  wakeups += o.wakeups;
  evicted += o.evicted;
  decode_errors += o.decode_errors;
  return *this;
}

Totals Totals::operator-(const Totals& o) const {
  Totals d = *this;
  d.campaigns -= o.campaigns;
  d.append_entries_sent -= o.append_entries_sent;
  d.messages_received -= o.messages_received;
  d.config_adoptions -= o.config_adoptions;
  d.lease_reads -= o.lease_reads;
  d.read_index_reads -= o.read_index_reads;
  d.reads_rejected -= o.reads_rejected;
  d.ae_batches -= o.ae_batches;
  d.ae_entries -= o.ae_entries;
  d.inflight_samples -= o.inflight_samples;
  d.inflight_sum -= o.inflight_sum;
  d.wal_syncs -= o.wal_syncs;
  d.wal_records -= o.wal_records;
  d.frames_in -= o.frames_in;
  d.frames_out -= o.frames_out;
  d.bytes_in -= o.bytes_in;
  d.bytes_out -= o.bytes_out;
  d.wakeups -= o.wakeups;
  d.evicted -= o.evicted;
  d.decode_errors -= o.decode_errors;
  return d;
}

DurableCluster::DurableCluster(std::string data_dir, std::uint64_t seed)
    : data_dir_(std::move(data_dir)), seed_(seed) {
  // Bind every listener before constructing any server, so the endpoint map
  // is final and no port can be taken between discovery and use.
  std::map<ServerId, escape::net::BoundListener> raft, client;
  for (ServerId id = 1; id <= kSize; ++id) {
    raft[id] = escape::net::bind_loopback_listener(0);
    client[id] = escape::net::bind_loopback_listener(0);
    raft_ports_[id] = raft[id].port;
    client_ports_[id] = client[id].port;
  }
  for (ServerId id = 1; id <= kSize; ++id) servers_[id] = make(id, raft[id].fd, client[id].fd);
  for (auto& [id, server] : servers_) server->start();
}

DurableCluster::~DurableCluster() {
  for (auto& [id, server] : servers_) {
    if (server) server->stop();
  }
}

std::unique_ptr<escape::serve::KvServer> DurableCluster::make(ServerId id, int raft_fd,
                                                               int client_fd) {
  escape::serve::KvServer::Options options;
  options.node.node.heartbeat_interval = escape::from_ms(60);
  options.node.listen_fd = raft_fd;
  options.node.data_dir = data_dir_;
  options.node.seed = seed_ * 31 + id * 7 + static_cast<std::uint64_t>(incarnations_[id]++);
  options.client_listen_fd = client_fd;
  return std::make_unique<escape::serve::KvServer>(id, raft_ports_, escape_policy(), options);
}

ServerId DurableCluster::leader() const {
  for (const auto& [id, server] : servers_) {
    if (server && server->node().role() == escape::Role::kLeader) return id;
  }
  return escape::kNoServer;
}

ServerId DurableCluster::wait_for_leader(double timeout_ms) const {
  const double give_up = now_us() + timeout_ms * 1e3;
  while (now_us() < give_up) {
    if (const ServerId id = leader(); id != escape::kNoServer) return id;
    sleep_ms(1);
  }
  return escape::kNoServer;
}

void DurableCluster::kill(ServerId id) {
  auto& server = servers_.at(id);
  server->stop();
  retired_ += read(*server);
  server.reset();
}

ServerId DurableCluster::kill_leader() {
  const ServerId victim = leader();
  if (victim != escape::kNoServer) kill(victim);
  return victim;
}

double DurableCluster::restart(ServerId id) {
  auto raft = escape::net::bind_loopback_listener(raft_ports_.at(id));
  auto client = escape::net::bind_loopback_listener(client_ports_.at(id));
  const double t0 = now_us();
  auto server = make(id, raft.fd, client.fd);
  server->start();
  const double ms = (now_us() - t0) / 1e3;
  servers_.at(id) = std::move(server);
  return ms;
}

bool DurableCluster::commits_converge(double timeout_ms) const {
  const double give_up = now_us() + timeout_ms * 1e3;
  while (now_us() < give_up) {
    escape::LogIndex lo = -1, hi = 0;
    bool first = true;
    for (const auto& [id, server] : servers_) {
      if (!server) continue;
      const escape::LogIndex c = server->node().commit_index();
      lo = first ? c : std::min(lo, c);
      hi = first ? c : std::max(hi, c);
      first = false;
    }
    if (!first && lo == hi) return true;
    sleep_ms(2);
  }
  return false;
}

Totals DurableCluster::read(escape::serve::KvServer& server) {
  const escape::raft::NodeCounters c = server.node().counters();
  const auto& loop = server.loop_stats();
  Totals t;
  t.campaigns = c.campaigns_started;
  t.append_entries_sent = c.append_entries_sent;
  t.messages_received = c.messages_received;
  t.config_adoptions = c.config_adoptions;
  t.lease_reads = c.lease_reads;
  t.read_index_reads = c.read_index_reads;
  t.reads_rejected = c.reads_rejected;
  t.ae_batches = c.append_batch_entries.count;
  t.ae_entries = c.append_batch_entries.sum;
  t.inflight_samples = c.inflight_depth.count;
  t.inflight_sum = c.inflight_depth.sum;
  t.wal_syncs = c.wal_group_syncs;
  t.wal_records = c.wal_records_per_sync.sum;
  t.frames_in = loop.frames_in.load();
  t.frames_out = loop.frames_out.load();
  t.bytes_in = loop.bytes_in.load();
  t.bytes_out = loop.bytes_out.load();
  t.wakeups = loop.wakeups.load();
  t.evicted = loop.evicted_slow.load();
  t.decode_errors = loop.decode_errors.load();
  return t;
}

Totals DurableCluster::totals() const {
  Totals t = retired_;
  for (const auto& [id, server] : servers_) {
    if (server) t += read(*server);
  }
  return t;
}

}  // namespace perfbench
