// Epoll-based event loop for the real-network serving path.
//
// One EventLoop multiplexes listening sockets plus any number of inbound
// and outbound connections on a single thread, modeled on the single-writer
// network loop of tarantool's iproto: the loop thread is the only thread
// that touches a socket or a connection, so none of it needs a lock. A
// replica runs everything on the one loop its RealNode owns: the raft
// transport (TcpTransport) is one service on it, KvServer's client listener
// another, and RealNode drives its consensus core's timers and Ready drain
// from the loop's tick. Other threads have one way in: post() queues a task,
// which the loop runs at the top of its next iteration, and call() posts one
// and waits for its result. The members touching connections are loop-thread
// only while the loop runs; a call from another thread throws
// std::logic_error. The loop drains everything in batches:
//
//   * edge-triggered epoll (EPOLLET): each readiness edge is drained to
//     EAGAIN, so the kernel is consulted once per burst, not once per frame;
//   * per-connection input/output ring buffers (ByteRing): recv() lands
//     directly in the input ring, frames are parsed off it in place (wire
//     format identical to rpc::FrameReader), and every complete frame of a
//     readiness burst is delivered to the owner in ONE on_frames callback —
//     the batching seam RealNode uses to step a whole burst into its core.
//     A corrupt frame (rpc::parse_frame_header or CRC) closes the connection
//     after the frames before it were delivered, and counts in decode_errors;
//   * deferred output flush: frames queued during an iteration accumulate in
//     the output rings and are written socket-by-socket at the end of the
//     iteration (or earlier, when the loop thread calls flush()), coalescing
//     many small frames into few write() calls;
//   * services: each class of connections (raft peers, KV clients) is a
//     service with its own handler, output policy and stats (add_service is
//     the only way to make one); a connection belongs to the service whose
//     listener accepted it, or whose connect() opened it;
//   * backpressure: each output ring is bounded. When a frame would
//     overflow the bound the loop either evicts the connection (serving
//     mode: a client that stops reading cannot pin server memory; counted
//     in stats(service).evicted_slow) or rejects the frame (transport mode:
//     consensus tolerates dropped messages by design).
//
// Syscalls go through net::testhooks so tests inject EINTR and short
// transfers deterministically.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/types.h>

#include "common/types.h"

namespace escape::net {

/// Syscall seams for fault-injection tests. Production code always calls the
/// sockets API through these pointers, which default to the real syscalls;
/// net tests swap them (before start(), restoring afterwards) to inject
/// EINTR returns and short transfers deterministically — conditions the
/// kernel produces rarely enough that a test relying on real signal timing
/// would be flaky. Not for use outside tests.
namespace testhooks {
using RecvFn = ssize_t (*)(int fd, void* buf, std::size_t len, int flags);
using SendFn = ssize_t (*)(int fd, const void* buf, std::size_t len, int flags);
using AcceptFn = int (*)(int fd, sockaddr* addr, socklen_t* addrlen);
extern RecvFn recv_fn;
extern SendFn send_fn;
extern AcceptFn accept_fn;
/// Restores all three hooks to the real syscalls.
void reset();
}  // namespace testhooks

/// An already-bound, listening loopback socket plus its kernel-assigned
/// port. Binding port 0 and discovering the result via getsockname is how
/// tests and examples avoid fixed-port collisions: reserve every listener
/// first, then hand the open fds to the transports — the port can never be
/// stolen between discovery and use.
struct BoundListener {
  int fd = -1;
  std::uint16_t port = 0;
};

/// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned), nonblocking,
/// SO_REUSEADDR. Throws std::runtime_error on failure. The caller owns the
/// fd until it hands the listener to an EventLoop.
BoundListener bind_loopback_listener(std::uint16_t port, int backlog = 1024);

/// Growable byte ring: a power-of-two circular buffer with contiguous-span
/// access for zero-copy recv()/send() at the head and tail. Grows on demand;
/// the serving layer bounds it externally (see EventLoop::Options).
class ByteRing {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return buf_.size(); }

  /// Appends `n` bytes, growing as needed.
  void append(const std::uint8_t* data, std::size_t n);

  /// Largest contiguous writable span at the tail, growing capacity to hold
  /// at least `want` more bytes. recv() targets this directly.
  std::pair<std::uint8_t*, std::size_t> tail_span(std::size_t want);

  /// Marks `n` bytes of the tail span as filled.
  void produce(std::size_t n);

  /// Contiguous readable span at the head (may be shorter than size() when
  /// the ring wraps). send() sources from this directly.
  std::pair<const std::uint8_t*, std::size_t> head_span() const;

  /// Copies `n` bytes starting `offset` bytes past the head into `out`
  /// (wrap-aware). Requires offset + n <= size().
  void peek(std::size_t offset, std::uint8_t* out, std::size_t n) const;

  /// Discards `n` bytes from the head. Requires n <= size().
  void consume(std::size_t n);

 private:
  void grow(std::size_t need);

  std::vector<std::uint8_t> buf_;  ///< power-of-two capacity (or empty)
  std::size_t head_ = 0;           ///< index of the first unread byte
  std::size_t size_ = 0;
};

/// Per-service statistics for tests, benches and diagnostics.
struct EventLoopStats {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> connected{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> evicted_slow{0};  ///< slow-client evictions
  std::atomic<std::uint64_t> decode_errors{0};
  /// Loop iterations that handled at least one event of this service.
  std::atomic<std::uint64_t> wakeups{0};
};

class EventLoop {
 public:
  /// Identifies one connection for the lifetime of the loop. Ids are never
  /// reused, so a stale id can at worst miss.
  using ConnId = std::uint64_t;

  /// One class of connections on the loop (see add_service).
  using ServiceId = std::size_t;

  enum class SendResult : std::uint8_t {
    kOk = 0,
    kOverflow = 1,  ///< output bound exceeded; frame rejected (or conn evicted)
    kClosed = 2,    ///< no such connection
  };

  /// Per-service socket and output policy.
  struct Options {
    /// When > 0, sets SO_SNDBUF / SO_RCVBUF on every socket (tests use tiny
    /// buffers to force partial transfers); 0 keeps the kernel defaults.
    int sndbuf = 0;
    int rcvbuf = 0;
    /// Bound on a connection's output ring. A frame that would exceed it is
    /// rejected — and the connection evicted when evict_on_overflow is set.
    std::size_t max_outbuf_bytes = 8u << 20;
    /// Serving mode: a client whose output ring overflows is closed and
    /// counted (stats(service).evicted_slow) instead of merely throttled —
    /// a reader that stopped reading must not pin server memory. Transport
    /// mode (false) rejects the frame and keeps the connection; consensus
    /// retransmits by design.
    bool evict_on_overflow = false;
  };

  /// Per-service callbacks, all invoked on the loop thread; they must not
  /// block. They may call send()/close()/connect() freely.
  struct Handler {
    /// New connection: accepted (inbound=true) or established outbound.
    std::function<void(ConnId, bool inbound)> on_open;
    /// Every complete frame payload parsed from one readiness burst, in
    /// arrival order — the batching seam.
    std::function<void(ConnId, std::vector<std::vector<std::uint8_t>>&&)> on_frames;
    /// Connection closed (peer hangup, error, eviction, or close()). Not
    /// invoked for connections torn down by stop().
    std::function<void(ConnId)> on_close;
  };

  /// A loop with no services yet (see add_service). Throws
  /// std::runtime_error when epoll or the wake eventfd cannot be created.
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Adds a class of connections served by this loop's thread, with its own
  /// handler, options and stats. Call before start().
  ServiceId add_service(Handler handler, Options options);

  /// Adopts an already-bound listener (see bind_loopback_listener) or, when
  /// `listener.fd < 0`, binds 127.0.0.1:`listener.port`, for `service`;
  /// accepted connections belong to that service. Call before start(), at
  /// most once per service; optional — a client-only service never listens.
  void listen(ServiceId service, BoundListener listener);

  /// Port `service`'s listener is bound to (0 when not listening).
  std::uint16_t port(ServiceId service) const { return services_.at(service)->listen_port; }

  /// Installs the loop's tick: called on the loop thread once per
  /// iteration, after the iteration's events and before its output flush,
  /// and again when the previous call's returned duration (microseconds,
  /// rounded up to the next millisecond, at most 100 ms) has elapsed.
  /// Without a tick the loop sleeps until an event (at most 100 ms). Call
  /// before start().
  void set_tick(std::function<Duration()> tick);

  /// Launches the loop thread.
  void start();

  /// Stops the loop thread, runs the tasks still queued on the calling
  /// thread, then closes every socket. Idempotent. on_close is not invoked
  /// for the teardown.
  void stop();

  /// Queues `task` to run on the loop thread at the top of its next
  /// iteration, in posting order. Thread-safe, never blocks. Tasks still
  /// queued when stop() joins the loop thread run on the stopping thread;
  /// while the loop is not running, `task` runs inline.
  void post(std::function<void()> task) const;

  /// Runs `fn` on the loop thread and returns its result (or rethrows its
  /// exception). Inline when called on the loop thread or while the loop is
  /// not running; otherwise posts it and blocks until it ran.
  template <typename Fn>
  std::invoke_result_t<Fn&> call(Fn&& fn) const;

  // Loop thread only while the loop runs (see the file comment).

  /// Opens a nonblocking outbound connection to 127.0.0.1:`port`, owned by
  /// `service`. Returns 0 on immediate failure (socket exhaustion). The
  /// connection is usable for send() at once — frames queue until the
  /// connect completes.
  ConnId connect(ServiceId service, std::uint16_t port);

  /// Queues one framed buffer on `conn`'s output ring; the end-of-iteration
  /// flush writes it. Never blocks. See Options for the overflow policy.
  SendResult send(ConnId conn, const std::vector<std::uint8_t>& frame);

  /// Closes `conn` at the end of the iteration; on_close fires then.
  void close(ConnId conn);

  /// Writes every queued frame to its socket now instead of at the end of
  /// the iteration.
  void flush();

  /// Bytes currently queued on `conn`'s output ring (flow-control probes).
  std::size_t outbuf_bytes(ConnId conn) const;

  /// Live connection count (listener and wake fd excluded).
  std::size_t connection_count() const;

  const EventLoopStats& stats(ServiceId service) const { return services_.at(service)->stats; }

  /// True on the loop thread (and in stop() while it runs leftover tasks).
  bool on_loop_thread() const { return std::this_thread::get_id() == loop_tid_.load(); }

 private:
  struct Service {
    Handler handler;
    Options options;
    EventLoopStats stats;
    int listen_fd = -1;
    std::uint16_t listen_port = 0;
    bool served = false;  ///< loop thread: had an event this iteration
  };

  struct Conn {
    int fd = -1;
    ConnId id = 0;
    Service* service = nullptr;
    bool connecting = false;  ///< nonblocking connect() still in flight
    bool want_flush = false;  ///< queued in flush_queue_ since the last flush pass
    bool doomed = false;      ///< close requested; torn down by the next flush pass
    ByteRing in;
    ByteRing out;
  };

  /// start() → kRunning → stop() → kStopping (the loop exits; stop() runs
  /// the queue dry) → kIdle. Tasks queue only while kRunning or kStopping.
  enum class Phase : std::uint8_t { kIdle, kRunning, kStopping };

  void run();
  /// Top of an iteration: runs the queued tasks; false once stop() began.
  bool run_posted();
  /// Queues `task`; false when the loop is idle and the caller runs it.
  bool enqueue(std::function<void()>& task) const;
  void wake() const;
  /// Throws std::logic_error when the loop runs on another thread.
  void check_loop_thread(const char* member) const;
  void accept_ready(Service* service);
  void read_ready(Conn* conn);
  void flush_conn(Conn* conn);
  void queue_flush(Conn* conn);
  void teardown(Conn* conn, bool deliver_close);
  Conn* find(ConnId id) const;
  /// Nonblocking, TCP_NODELAY, and the service's buffer sizes.
  static void apply_socket_options(int fd, const Options& options);
  /// Registers a connected socket as a new connection; 0 (fd closed) when
  /// epoll refuses it.
  ConnId adopt(int fd, Service* service, bool inbound);
  void register_fd(int fd, std::uint64_t tag);
  /// Milliseconds the next epoll_wait may sleep (runs the tick).
  int run_tick();

  /// Fixed before start(), indexed by ServiceId.
  std::vector<std::unique_ptr<Service>> services_;
  std::function<Duration()> tick_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  // Loop thread only while the loop runs.
  std::map<ConnId, std::unique_ptr<Conn>> conns_;
  std::vector<ConnId> flush_queue_;
  ConnId next_id_ = 1;  // 0 is the wake fd's tag

  // The way in from other threads.
  mutable std::mutex mu_;  // guards phase_ and tasks_
  Phase phase_ = Phase::kIdle;
  mutable std::vector<std::function<void()>> tasks_;

  std::thread thread_;
  /// The loop thread while it runs (the stopping thread while stop() drains
  /// the queue); default otherwise.
  std::atomic<std::thread::id> loop_tid_{};
};

template <typename Fn>
std::invoke_result_t<Fn&> EventLoop::call(Fn&& fn) const {
  if (on_loop_thread()) return fn();
  // Shared: the loop thread may still hold the task after the caller has
  // its result.
  auto task = std::make_shared<std::packaged_task<std::invoke_result_t<Fn&>()>>(std::ref(fn));
  auto result = task->get_future();
  std::function<void()> run = [task] { (*task)(); };
  if (!enqueue(run)) return fn();
  return result.get();
}

}  // namespace escape::net
