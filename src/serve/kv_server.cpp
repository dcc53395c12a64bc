#include "serve/kv_server.h"

#include "common/logging.h"
#include "rpc/wire.h"

namespace escape::serve {

namespace {

// Client-service backpressure bound (see EventLoop::Options).
constexpr std::size_t kMaxClientOutbuf = std::size_t{4} << 20;

}  // namespace

KvServer::KvServer(ServerId id, std::map<ServerId, std::uint16_t> raft_endpoints,
                   net::PolicyFactory policy, Options options)
    : id_(id),
      node_(id, std::move(raft_endpoints), std::move(policy), options.node),
      options_(std::move(options)) {
  net::EventLoop::Handler handler;
  handler.on_frames = [this](net::EventLoop::ConnId conn,
                             std::vector<std::vector<std::uint8_t>>&& frames) {
    on_frames(conn, std::move(frames));
  };
  net::EventLoop::Options serving;
  serving.max_outbuf_bytes = kMaxClientOutbuf;
  serving.evict_on_overflow = true;  // serving mode: slow clients are evicted
  client_ = node_.loop().add_service(std::move(handler), serving);
  node_.set_apply_hook([this](const rpc::LogEntry& entry) { on_apply(entry); });
  node_.set_read_hook([this](const raft::ReadGrant& grant) { on_read(grant); });
  node_.set_restore_hook([this](const raft::Snapshot& snapshot) { on_restore(snapshot); });
  node_.set_snapshot_hook([this] { return store_.snapshot(); });
}

KvServer::~KvServer() { stop(); }

void KvServer::start() {
  net::BoundListener listener{options_.client_listen_fd, options_.client_port};
  if (listener.fd < 0) listener = net::bind_loopback_listener(listener.port);
  node_.loop().listen(client_, listener);
  node_.start();
}

void KvServer::stop() { node_.stop(); }

void KvServer::respond(net::EventLoop::ConnId conn, const Response& response) {
  // Overflow (slow client) evicts inside send(); nothing more to do here.
  node_.loop().send(conn, rpc::frame_payload(encode_response(response)));
}

void KvServer::on_frames(net::EventLoop::ConnId conn,
                         std::vector<std::vector<std::uint8_t>>&& frames) {
  for (const auto& payload : frames) {
    auto request = decode_request(payload);
    if (!request) {
      LOG_WARN("kv server " << server_name(id_) << ": undecodable client request; closing");
      node_.loop().close(conn);
      return;
    }
    handle_request(conn, *request);
  }
}

void KvServer::handle_request(net::EventLoop::ConnId conn, const Request& request) {
  Response response;
  response.request_id = request.request_id;

  // On the loop thread: the batch this submission produces drains in the
  // loop's tick, after this request is parked in its pending table.
  if (request.command.op == kv::Op::kGet) {
    const auto read = node_.submit_read();
    if (!read) {
      response.status = Status::kNotLeader;
      response.leader_hint = node_.leader_hint();
      respond(conn, response);
      return;
    }
    pending_reads_[*read] = PendingRead{conn, request.request_id, request.command.key};
    return;
  }

  const auto index = node_.submit(kv::encode_command(request.command));
  if (!index) {
    response.status = Status::kNotLeader;
    response.leader_hint = node_.leader_hint();
    respond(conn, response);
    return;
  }
  pending_writes_[*index] = PendingWrite{conn, request.request_id, request.command.client_id,
                                         request.command.sequence};
}

void KvServer::on_apply(const rpc::LogEntry& entry) {
  // The store is applied unconditionally (every replica runs the same state
  // machine); only the leader that accepted the request has a pending to
  // answer.
  const auto result_bytes = store_.apply(entry);

  const auto it = pending_writes_.find(entry.index);
  if (it == pending_writes_.end()) return;
  const PendingWrite pending = it->second;
  pending_writes_.erase(it);

  Response response;
  response.request_id = pending.request_id;
  const auto command = kv::decode_command(entry.command);
  if (command && command->client_id == pending.client_id &&
      command->sequence == pending.sequence) {
    auto result = kv::decode_result(result_bytes);
    response.status = Status::kOk;
    if (result) response.result = std::move(*result);
  } else {
    // A different entry committed at this index: leadership changed and our
    // proposal was displaced. The client resubmits; session dedup returns
    // the cached result if the command did land under a later index.
    response.status = Status::kRetry;
  }
  respond(pending.conn, response);
}

void KvServer::on_read(const raft::ReadGrant& grant) {
  const auto it = pending_reads_.find(grant.id);
  if (it == pending_reads_.end()) return;
  const PendingRead pending = std::move(it->second);
  pending_reads_.erase(it);
  Response response;
  response.request_id = pending.request_id;
  if (grant.ok) {
    // Every entry up to the read index is already applied, so the local
    // store is a linearizable view for this read.
    const auto value = store_.peek(pending.key);
    response.status = Status::kOk;
    response.result.ok = value.has_value();
    if (value) response.result.value = *value;
  } else {
    response.status = Status::kRetry;
  }
  respond(pending.conn, response);
}

void KvServer::on_restore(const raft::Snapshot& snapshot) {
  if (!store_.restore(snapshot.state)) {
    LOG_WARN("kv server " << server_name(id_) << ": snapshot restore failed");
  }
  // Writes at or below the snapshot index committed but their per-index
  // outcome is unknowable now; kRetry is safe — session dedup answers from
  // the restored session table if the command already executed.
  for (auto it = pending_writes_.begin(); it != pending_writes_.end();) {
    if (it->first > snapshot.last_included_index) break;
    Response response;
    response.request_id = it->second.request_id;
    response.status = Status::kRetry;
    respond(it->second.conn, response);
    it = pending_writes_.erase(it);
  }
}

}  // namespace escape::serve
