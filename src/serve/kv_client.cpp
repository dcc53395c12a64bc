#include "serve/kv_client.h"

#include <algorithm>
#include <utility>

#include "rpc/wire.h"

namespace escape::serve {
namespace {

// Delay before a command refused by the server, or unsendable, is resent.
constexpr Duration kRetryBackoff = from_ms(10);

std::vector<ServerId> server_list(const std::map<ServerId, std::uint16_t>& ports) {
  std::vector<ServerId> out;
  out.reserve(ports.size());
  for (const auto& [id, port] : ports) out.push_back(id);
  return out;
}

}  // namespace

KvClient::KvClient(std::map<ServerId, std::uint16_t> client_ports, std::uint64_t base_client_id,
                   Options options)
    : ports_(std::move(client_ports)),
      base_client_id_(base_client_id),
      options_(options),
      servers_(server_list(ports_)),
      lanes_(static_cast<std::size_t>(std::max(1, options.lanes))),
      leader_(servers_.empty() ? kNoServer : servers_.front()) {
  net::EventLoop::Handler handler;
  handler.on_frames = [this](net::EventLoop::ConnId conn,
                             std::vector<std::vector<std::uint8_t>>&& frames) {
    on_frames(conn, std::move(frames));
  };
  handler.on_close = [this](net::EventLoop::ConnId conn) { on_conn_closed(conn); };
  service_ = loop_.add_service(std::move(handler), net::EventLoop::Options{});
  loop_.set_tick([this] { return tick(); });
}

KvClient::~KvClient() { stop(); }

void KvClient::start() { loop_.start(); }

void KvClient::stop() {
  // Queued behind every submit posted so far, so those fail here too; the
  // loop (or, once it has exited, stop()'s drain) runs it.
  loop_.post([this] {
    closed_ = true;
    auto pending = std::exchange(pending_, {});
    for (auto& [id, command] : pending) complete(command.done, Status::kRetry, {});
  });
  loop_.stop();
}

std::size_t KvClient::outstanding() const { return outstanding_.load(); }

void KvClient::complete(const Callback& done, Status status, const kv::CommandResult& result) {
  if (done) done(status, result);
  outstanding_.fetch_sub(1);
}

net::EventLoop::ConnId KvClient::conn_for(ServerId server, std::uint64_t request_id) {
  auto& slots = conns_[server];
  if (slots.empty()) {
    slots.resize(static_cast<std::size_t>(std::max(1, options_.connections_per_server)), 0);
  }
  const std::size_t slot = request_id % slots.size();
  if (slots[slot] == 0) {
    const auto port = ports_.find(server);
    if (port == ports_.end()) return 0;
    const auto conn = loop_.connect(service_, port->second);
    if (conn == 0) return 0;
    slots[slot] = conn;
    conn_server_[conn] = server;
  }
  return slots[slot];
}

void KvClient::rotate_leader() {
  if (servers_.empty()) return;
  const auto it = std::find(servers_.begin(), servers_.end(), leader_);
  const std::size_t at = it == servers_.end() ? 0 : (it - servers_.begin());
  leader_ = servers_[(at + 1) % servers_.size()];
}

void KvClient::retry_later(Pending& pending, TimePoint now) {
  pending.in_flight = false;
  pending.redirected = false;
  pending.not_before = now + kRetryBackoff;
}

void KvClient::try_send(std::uint64_t request_id, Pending& pending, TimePoint now) {
  const auto conn = conn_for(leader_, request_id);
  if (conn == 0 || loop_.send(conn, rpc::frame_payload(encode_request(pending.request))) !=
                       net::EventLoop::SendResult::kOk) {
    retry_later(pending, now);
    return;
  }
  pending.in_flight = true;
  pending.sent_conn = conn;
}

void KvClient::submit(kv::Command command, Callback done) {
  outstanding_.fetch_add(1);
  loop_.post([this, command = std::move(command), done = std::move(done),
              submitted = clock_.now()]() mutable {
    begin(std::move(command), std::move(done), submitted);
  });
}

void KvClient::begin(kv::Command command, Callback done, TimePoint submitted) {
  if (closed_) {
    complete(done, Status::kRetry, {});
    return;
  }
  const TimePoint now = clock_.now();
  const std::uint64_t request_id = next_request_++;
  Pending pending;
  pending.done = std::move(done);
  pending.deadline = submitted + options_.timeout;
  pending.request.request_id = request_id;
  pending.request.command = std::move(command);

  if (pending.request.command.op == kv::Op::kGet) {
    // Reads carry no session identity and run with unbounded concurrency.
    auto& slot = pending_[request_id] = std::move(pending);
    try_send(request_id, slot, now);
    return;
  }

  const int lane_index = static_cast<int>(next_lane_++ % lanes_.size());
  pending.lane = lane_index;
  auto& lane = lanes_[static_cast<std::size_t>(lane_index)];
  auto& slot = pending_[request_id] = std::move(pending);
  if (lane.active != 0) {
    // The session already has a write in flight; sequence is stamped at
    // activation so per-lane sequences match send order exactly.
    lane.waiting.push_back(request_id);
    return;
  }
  lane.active = request_id;
  slot.request.command.client_id = base_client_id_ + static_cast<std::uint64_t>(lane_index);
  slot.request.command.sequence = lane.next_sequence++;
  try_send(request_id, slot, now);
}

void KvClient::finish(std::uint64_t request_id, Status status, const kv::CommandResult& result,
                      TimePoint now) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  const int lane_index = it->second.lane;
  const Callback done = std::move(it->second.done);
  pending_.erase(it);
  if (lane_index >= 0) {
    auto& lane = lanes_[static_cast<std::size_t>(lane_index)];
    if (lane.active == request_id) {
      lane.active = 0;
      // Activate the next queued write on this session.
      while (!lane.waiting.empty()) {
        const std::uint64_t next_id = lane.waiting.front();
        lane.waiting.pop_front();
        const auto next = pending_.find(next_id);
        if (next == pending_.end()) continue;  // timed out while waiting
        lane.active = next_id;
        next->second.request.command.client_id =
            base_client_id_ + static_cast<std::uint64_t>(lane_index);
        next->second.request.command.sequence = lane.next_sequence++;
        try_send(next_id, next->second, now);
        break;
      }
    }
  }
  complete(done, status, result);
}

void KvClient::on_frames(net::EventLoop::ConnId conn,
                         std::vector<std::vector<std::uint8_t>>&& frames) {
  const TimePoint now = clock_.now();
  for (const auto& payload : frames) {
    const auto response = decode_response(payload);
    if (!response) continue;  // tolerate garbage; the deadline backstops
    const auto it = pending_.find(response->request_id);
    if (it == pending_.end()) continue;  // late answer for a timed-out request
    switch (response->status) {
      case Status::kOk:
        finish(response->request_id, Status::kOk, response->result, now);
        break;
      case Status::kNotLeader: {
        const auto owner = conn_server_.find(conn);
        const ServerId answered = owner == conn_server_.end() ? kNoServer : owner->second;
        const ServerId hint = response->leader_hint;
        Pending& pending = it->second;
        if (hint != kNoServer && ports_.count(hint)) {
          leader_ = hint;
          // Follow a fresh hint at once; a redirect that bounces again (two
          // servers hinting each other mid-election) waits the backoff.
          if (hint != answered && !pending.redirected) {
            pending.redirected = true;
            try_send(response->request_id, pending, now);
            break;
          }
        } else if (answered == leader_) {
          rotate_leader();
        }
        retry_later(pending, now);
        break;
      }
      case Status::kRetry:
      default:
        retry_later(it->second, now);
        break;
    }
  }
}

void KvClient::on_conn_closed(net::EventLoop::ConnId conn) {
  const TimePoint now = clock_.now();
  const auto owner = conn_server_.find(conn);
  if (owner != conn_server_.end()) {
    auto& slots = conns_[owner->second];
    std::replace(slots.begin(), slots.end(), conn, net::EventLoop::ConnId{0});
    // A dropped leader link usually means the leader died; try elsewhere.
    if (owner->second == leader_) rotate_leader();
    conn_server_.erase(owner);
  }
  for (auto& [id, pending] : pending_) {
    if (pending.in_flight && pending.sent_conn == conn) retry_later(pending, now);
  }
}

Duration KvClient::tick() {
  const TimePoint now = clock_.now();
  TimePoint next = kNever;
  std::vector<std::uint64_t> expired;
  for (auto& [id, pending] : pending_) {
    if (pending.deadline <= now) {
      expired.push_back(id);
      continue;
    }
    next = std::min(next, pending.deadline);
    // A write queued behind its lane's active one waits for the lane.
    if (pending.in_flight ||
        (pending.lane >= 0 && lanes_[static_cast<std::size_t>(pending.lane)].active != id)) {
      continue;
    }
    if (pending.not_before <= now) try_send(id, pending, now);
    if (!pending.in_flight) next = std::min(next, pending.not_before);
  }
  for (const auto id : expired) finish(id, Status::kTimeout, kv::CommandResult{}, now);
  // A timeout may have activated a queued write: look again at once.
  if (!expired.empty()) return 0;
  return next == kNever ? kNever : next - now;
}

}  // namespace escape::serve
