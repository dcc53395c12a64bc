#include "net/tcp_transport.h"

#include <stdexcept>

#include "common/logging.h"
#include "common/serde.h"

namespace escape::net {
namespace {

// The first frame on an outgoing connection carries a one-u32 hello (the
// sender's id) so the acceptor can attribute inbound traffic to a ServerId.
std::vector<std::uint8_t> hello_frame(ServerId self) {
  Encoder e;
  e.u32(self);
  return rpc::frame_payload(e.take());
}

}  // namespace

TcpTransport::TcpTransport(EventLoop& loop, ServerId self,
                           std::map<ServerId, std::uint16_t> endpoints, DeliverFn deliver,
                           BoundListener listener, EventLoop::Options options)
    : loop_(loop), self_(self), endpoints_(std::move(endpoints)), deliver_(std::move(deliver)) {
  const auto own = endpoints_.find(self_);
  if (own == endpoints_.end()) throw std::invalid_argument("endpoints must include self");
  // Transport mode: overflow drops the frame but keeps the connection —
  // consensus retransmits by design, and evicting a live peer link would
  // only force a reconnect.
  options.evict_on_overflow = false;
  EventLoop::Handler handler;
  handler.on_frames = [this](EventLoop::ConnId conn,
                             std::vector<std::vector<std::uint8_t>>&& frames) {
    on_frames(conn, std::move(frames));
  };
  handler.on_close = [this](EventLoop::ConnId conn) { on_conn_closed(conn); };
  service_ = loop_.add_service(std::move(handler), options);
  // Adopted or bound here, the listener sits on self's endpoint: peers dial
  // it there.
  listener.port = own->second;
  loop_.listen(service_, listener);
}

EventLoop::ConnId TcpTransport::outgoing(ServerId peer) {
  const auto existing = peer_conn_.find(peer);
  if (existing != peer_conn_.end()) return existing->second;
  const auto endpoint = endpoints_.find(peer);
  if (endpoint == endpoints_.end()) return 0;
  const EventLoop::ConnId conn = loop_.connect(service_, endpoint->second);
  if (conn == 0) return 0;
  peer_conn_[peer] = conn;
  conn_peer_[conn] = peer;
  loop_.send(conn, hello_frame(self_));
  return conn;
}

void TcpTransport::send(const rpc::Envelope& envelope) {
  const auto frame = rpc::frame_message(envelope.message);
  const EventLoop::ConnId conn = outgoing(envelope.to);
  if (conn == 0 || loop_.send(conn, frame) != EventLoop::SendResult::kOk) ++dropped_;
}

void TcpTransport::send_batch(const std::vector<rpc::Envelope>& envelopes) {
  // Per-envelope path; the loop already coalesces every frame queued this
  // pass into few write()s per destination.
  for (const auto& envelope : envelopes) send(envelope);
}

void TcpTransport::on_frames(EventLoop::ConnId conn,
                             std::vector<std::vector<std::uint8_t>>&& frames) {
  const auto known = conn_peer_.find(conn);
  ServerId peer = known == conn_peer_.end() ? kNoServer : known->second;
  std::vector<rpc::Envelope> batch;
  batch.reserve(frames.size());
  bool corrupt = false;
  std::size_t i = 0;
  try {
    if (peer == kNoServer) {
      // First inbound frame is the hello carrying the sender's id.
      Decoder d(frames[0]);
      peer = d.u32();
      d.expect_end();
      conn_peer_[conn] = peer;
      i = 1;
    }
    for (; i < frames.size(); ++i) {
      rpc::Envelope env;
      env.from = peer;
      env.to = self_;
      env.message = rpc::decode_message(frames[i]);
      batch.push_back(std::move(env));
    }
  } catch (const DecodeError& e) {
    LOG_WARN("transport " << server_name(self_)
                          << ": closing connection after decode error: " << e.what());
    corrupt = true;
  }
  // Frames decoded before the corrupt one still deliver: the stream's
  // intact prefix is good data.
  if (!batch.empty() && deliver_) deliver_(std::move(batch));
  if (corrupt) loop_.close(conn);
}

void TcpTransport::on_conn_closed(EventLoop::ConnId conn) {
  const auto it = conn_peer_.find(conn);
  if (it == conn_peer_.end()) return;
  const auto out = peer_conn_.find(it->second);
  // Only forget the outgoing link when it is this connection — an inbound
  // connection from the same peer closing must not sever our own link.
  if (out != peer_conn_.end() && out->second == conn) peer_conn_.erase(out);
  conn_peer_.erase(it);
}

}  // namespace escape::net
