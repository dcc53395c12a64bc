// Real TCP transport for deploying the consensus core outside the simulator.
//
// A TcpTransport is one service on its replica's EventLoop (edge-triggered
// epoll, per-connection ring buffers — see event_loop.h): a listening socket
// plus lazily established outgoing connections to peers. Messages are framed
// with rpc::frame_message (length prefix + CRC); a corrupt frame closes the
// connection, and outgoing sends reconnect transparently — consensus
// tolerates lost messages by design, so the transport drops rather than
// blocks when a peer is unreachable.
//
// Thread model: everything runs on the loop thread. send()/send_batch() and
// dropped() are loop-thread only while the loop runs (RealNode's send hook;
// other threads post through the loop), so the peer maps need no lock. The
// deliver callback runs on the loop thread and must not block. Every
// complete frame of one readiness burst arrives in a single deliver call —
// the seam RealNode uses to step a whole burst into its core. The loop's
// owner (RealNode) starts and stops it; the transport only registers its
// service. Its traffic counters are the loop's stats for that service.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/event_loop.h"
#include "rpc/messages.h"
#include "rpc/wire.h"

namespace escape::net {

class TcpTransport {
 public:
  /// Receives every message parsed from one readiness burst, in order.
  using DeliverFn = std::function<void(std::vector<rpc::Envelope>&&)>;

  /// Registers a transport-mode service on `loop` (socket sizes from
  /// `options`; overflow always drops the frame and keeps the connection)
  /// and listens on `endpoints[self]`: adopts `listener` when it is an
  /// already-bound socket there (see bind_loopback_listener), or binds the
  /// port itself when `listener.fd < 0`. `endpoints` maps every cluster member (including
  /// `self`) to a TCP port on 127.0.0.1. Call before the loop starts; the
  /// loop must outlive the transport and stop before it is destroyed.
  /// Throws std::invalid_argument without a self endpoint and
  /// std::runtime_error on bind failure.
  TcpTransport(EventLoop& loop, ServerId self, std::map<ServerId, std::uint16_t> endpoints,
               DeliverFn deliver, BoundListener listener, EventLoop::Options options = {});

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Queues `envelope` for its destination. Loop thread only while the loop
  /// runs. Never blocks; drops (and counts) when the peer is unreachable or
  /// the outbound queue is saturated.
  void send(const rpc::Envelope& envelope);

  /// Queues a whole Ready batch; the loop coalesces all frames sharing a
  /// destination into few write()s. Loop thread only while the loop runs.
  void send_batch(const std::vector<rpc::Envelope>& envelopes);

  /// The transport's service on the loop (its port() and stats()).
  EventLoop::ServiceId service() const { return service_; }
  /// Envelopes dropped because the peer was unknown, unreachable or its
  /// output ring full. Loop thread only while the loop runs.
  std::uint64_t dropped() const { return dropped_; }

 private:
  void on_frames(EventLoop::ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames);
  void on_conn_closed(EventLoop::ConnId conn);
  EventLoop::ConnId outgoing(ServerId peer);

  EventLoop& loop_;
  const ServerId self_;
  const std::map<ServerId, std::uint16_t> endpoints_;
  DeliverFn deliver_;
  EventLoop::ServiceId service_;

  // Loop thread only.
  std::map<ServerId, EventLoop::ConnId> peer_conn_;  ///< outgoing connection per peer
  std::map<EventLoop::ConnId, ServerId> conn_peer_;  ///< known (outgoing) or learned (hello)
  std::uint64_t dropped_ = 0;
};

}  // namespace escape::net
