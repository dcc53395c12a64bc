// One replica of the replicated KV service: a RealNode (consensus over TCP)
// plus a client listener speaking serve::kv_wire.
//
// One thread per server: the RealNode owns the replica's event loop, and the
// client listener is a service on it beside the raft transport's, attached
// the same way (add_service + listen), so client requests, peer messages,
// timers and the Ready drain all run on the loop thread. The client service
// runs in serving mode — bounded per-connection output with slow-client
// eviction — so a client that stops reading its responses is cut loose
// instead of pinning server memory; its stats (loop_stats()) count client
// connections only.
//
// Request handling:
//   * writes (Put/Del/Cas) submit to the node and park in a pending table
//     keyed by the returned log index. The apply hook feeds every committed
//     entry to the local KvStore; when the entry at a pending index
//     arrives, the stored (client_id, sequence) decides the outcome —
//     a match answers kOk with the apply result, a mismatch means this
//     leader's entry was displaced by a newer term and the client must
//     resubmit (kRetry; session dedup keeps the retry exactly-once).
//   * reads (Get) go through submit_read; the grant licenses serving the key
//     from the local store (every committed entry up to the read index has
//     already been applied).
//   * a non-leader answers kNotLeader with its leader hint.
//
// The KvStore and the pending tables are touched only on the loop thread (a
// request is parked before the tick that drains its batch can answer it),
// so none of them needs a lock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "kv/kv_store.h"
#include "net/event_loop.h"
#include "net/real_cluster.h"
#include "serve/kv_wire.h"

namespace escape::serve {

class KvServer {
 public:
  struct Options {
    net::RealNode::Options node;
    /// Pre-bound client listener to adopt (port-0 path); when < 0 the
    /// server binds 127.0.0.1:client_port (0 = kernel-assigned).
    int client_listen_fd = -1;
    std::uint16_t client_port = 0;
  };

  /// `raft_endpoints` maps every member (including `id`) to its raft
  /// transport port, exactly as for RealNode.
  KvServer(ServerId id, std::map<ServerId, std::uint16_t> raft_endpoints,
           net::PolicyFactory policy, Options options);
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// Listens for clients, then starts the node (and with it the loop).
  void start();
  /// Stops the node's loop, which serves the clients too. Idempotent.
  void stop();

  /// Client-facing port (kernel-assigned when Options asked for port 0).
  std::uint16_t client_port() const { return node_.loop().port(client_); }

  net::RealNode& node() { return node_; }
  /// Stats of the client connections only.
  const net::EventLoopStats& loop_stats() const { return node_.loop().stats(client_); }
  ServerId id() const { return id_; }

 private:
  struct PendingWrite {
    net::EventLoop::ConnId conn = 0;
    std::uint64_t request_id = 0;
    std::uint64_t client_id = 0;
    std::uint64_t sequence = 0;
  };
  struct PendingRead {
    net::EventLoop::ConnId conn = 0;
    std::uint64_t request_id = 0;
    std::string key;
  };

  void on_frames(net::EventLoop::ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames);
  void handle_request(net::EventLoop::ConnId conn, const Request& request);
  void on_apply(const rpc::LogEntry& entry);
  void on_read(const raft::ReadGrant& grant);
  void on_restore(const raft::Snapshot& snapshot);
  void respond(net::EventLoop::ConnId conn, const Response& response);

  const ServerId id_;
  net::RealNode node_;
  net::EventLoop::ServiceId client_;
  Options options_;
  kv::KvStore store_;
  std::map<LogIndex, PendingWrite> pending_writes_;
  std::map<raft::ReadId, PendingRead> pending_reads_;
};

}  // namespace escape::serve
