// Real TCP transport for deploying the consensus core outside the simulator.
//
// Each server owns one TcpTransport: a listening socket plus lazily
// established outgoing connections to peers, multiplexed by one EventLoop
// (edge-triggered epoll, per-connection ring buffers — see event_loop.h).
// Messages are framed with rpc::frame_message (length prefix + CRC); a
// corrupt frame closes the connection, and outgoing sends reconnect
// transparently — consensus tolerates lost messages by design, so the
// transport drops rather than blocks when a peer is unreachable.
//
// Thread model: everything runs on the loop thread. send()/send_batch()
// are loop-thread only while the loop runs (RealNode's send hook; other
// threads post through loop()), so the peer maps need no lock. The deliver
// callback runs on the loop thread and must not block. Every complete frame of one readiness burst arrives in a
// single deliver call — the seam RealNode uses to step a whole burst into
// its core. RealNode also runs its core's timers and Ready drain on this
// transport's loop (loop()), and KvServer adds its client listener to it,
// so a replica is one thread.
//
// The net::testhooks syscall seams live in event_loop.h (shared with the
// serving layer).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/event_loop.h"
#include "rpc/messages.h"
#include "rpc/wire.h"

namespace escape::net {

/// Statistics for tests and diagnostics.
struct TransportStats {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> reconnects{0};
};

struct TransportOptions {
  /// When > 0, sets SO_SNDBUF / SO_RCVBUF on every socket. Tests use tiny
  /// buffers to force partial writes; 0 keeps the kernel defaults.
  int sndbuf = 0;
  int rcvbuf = 0;
  /// When >= 0, start() adopts this already-bound listening socket (see
  /// bind_loopback_listener) instead of binding endpoints[self]. This is the
  /// port-0 path: reserve every listener first, discover the kernel-assigned
  /// ports, then hand each open fd to its transport — no rebind race.
  int listen_fd = -1;
};

class TcpTransport {
 public:
  /// Receives every message parsed from one readiness burst, in order.
  using DeliverFn = std::function<void(std::vector<rpc::Envelope>&&)>;

  /// `endpoints` maps every cluster member (including `self`) to a TCP port
  /// on 127.0.0.1. The transport binds self's port in start() (unless
  /// options.listen_fd adopts a pre-bound listener).
  TcpTransport(ServerId self, std::map<ServerId, std::uint16_t> endpoints, DeliverFn deliver,
               TransportOptions options = {});
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds (or adopts), listens and launches the event-loop thread. Throws
  /// std::runtime_error on bind failure.
  void start();

  /// Stops the event loop and closes all sockets. Idempotent and terminal —
  /// a stopped transport cannot be restarted.
  void stop();

  /// Queues `envelope` for its destination. Loop thread only while the loop
  /// runs. Never blocks; drops (and counts) when the peer is unreachable or
  /// the outbound queue is saturated.
  void send(const rpc::Envelope& envelope);

  /// Queues a whole Ready batch; the loop coalesces all frames sharing a
  /// destination into few write()s. Loop thread only while the loop runs.
  void send_batch(const std::vector<rpc::Envelope>& envelopes);

  /// Port the transport is listening on. Meaningful after start(); with a
  /// pre-bound listener this is the kernel-assigned port.
  std::uint16_t port() const;

  const TransportStats& stats() const { return stats_; }
  ServerId self() const { return self_; }

  /// The event loop carrying this transport's connections (its service 0).
  EventLoop& loop() { return *loop_; }
  const EventLoop& loop() const { return *loop_; }

 private:
  void on_frames(EventLoop::ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames);
  void on_conn_closed(EventLoop::ConnId conn);
  EventLoop::ConnId outgoing(ServerId peer);

  const ServerId self_;
  const std::map<ServerId, std::uint16_t> endpoints_;
  DeliverFn deliver_;
  const TransportOptions options_;

  std::unique_ptr<EventLoop> loop_;

  // Loop thread only.
  std::map<ServerId, EventLoop::ConnId> peer_conn_;  ///< outgoing connection per peer
  std::map<EventLoop::ConnId, ServerId> conn_peer_;  ///< known (outgoing) or learned (hello)

  TransportStats stats_;
};

}  // namespace escape::net
