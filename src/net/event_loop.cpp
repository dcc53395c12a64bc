#include "net/event_loop.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/serde.h"
#include "rpc/wire.h"

namespace escape::net {
namespace {

// epoll_event.data.u64 tags: 0 is the wake fd, kListenerTag | service a
// listener; connection ids count up from 1 (see next_id_).
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenerTag = std::uint64_t{1} << 63;

// recv() chunk requested per call.
constexpr std::size_t kReadChunk = std::size_t{1} << 16;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Parses every complete frame off `in` (same wire format as
/// rpc::FrameReader, parsed in place on the ring) into `out`. Throws
/// DecodeError on a bad header or CRC: the stream is no longer trustworthy,
/// but the frames before the bad one are already in `out`.
void parse_frames(ByteRing& in, std::vector<std::vector<std::uint8_t>>& out) {
  while (in.size() >= rpc::kFrameHeaderBytes) {
    std::uint8_t hdr[rpc::kFrameHeaderBytes];
    in.peek(0, hdr, rpc::kFrameHeaderBytes);
    const rpc::FrameHeader header = rpc::parse_frame_header(hdr);
    if (in.size() < rpc::kFrameHeaderBytes + header.length) return;
    std::vector<std::uint8_t> payload(header.length);
    in.peek(rpc::kFrameHeaderBytes, payload.data(), header.length);
    if (crc32(payload) != header.crc) throw DecodeError("frame CRC mismatch");
    in.consume(rpc::kFrameHeaderBytes + header.length);
    out.push_back(std::move(payload));
  }
}

}  // namespace

namespace testhooks {
RecvFn recv_fn = &::recv;
SendFn send_fn = &::send;
AcceptFn accept_fn = &::accept;
void reset() {
  recv_fn = &::recv;
  send_fn = &::send;
  accept_fn = &::accept;
}
}  // namespace testhooks

BoundListener bind_loopback_listener(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("bind() failed on port " + std::to_string(port) + ": " +
                             std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("listen() failed: ") + std::strerror(err));
  }
  set_nonblocking(fd);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("getsockname() failed: ") + std::strerror(err));
  }
  return BoundListener{fd, ntohs(bound.sin_port)};
}

// --- ByteRing ----------------------------------------------------------------

void ByteRing::grow(std::size_t need) {
  std::size_t cap = buf_.empty() ? 4096 : buf_.size();
  while (cap < need) cap *= 2;
  if (cap == buf_.size()) return;
  std::vector<std::uint8_t> next(cap);
  peek(0, next.data(), size_);
  buf_ = std::move(next);
  head_ = 0;
}

void ByteRing::append(const std::uint8_t* data, std::size_t n) {
  if (size_ + n > buf_.size()) grow(size_ + n);
  const std::size_t tail = (head_ + size_) & (buf_.size() - 1);
  const std::size_t first = std::min(n, buf_.size() - tail);
  std::memcpy(buf_.data() + tail, data, first);
  std::memcpy(buf_.data(), data + first, n - first);
  size_ += n;
}

std::pair<std::uint8_t*, std::size_t> ByteRing::tail_span(std::size_t want) {
  if (size_ + want > buf_.size()) grow(size_ + want);
  const std::size_t tail = (head_ + size_) & (buf_.size() - 1);
  return {buf_.data() + tail, std::min(buf_.size() - tail, buf_.size() - size_)};
}

void ByteRing::produce(std::size_t n) { size_ += n; }

std::pair<const std::uint8_t*, std::size_t> ByteRing::head_span() const {
  if (buf_.empty()) return {nullptr, 0};
  return {buf_.data() + head_, std::min(size_, buf_.size() - head_)};
}

void ByteRing::peek(std::size_t offset, std::uint8_t* out, std::size_t n) const {
  if (n == 0) return;
  const std::size_t start = (head_ + offset) & (buf_.size() - 1);
  const std::size_t first = std::min(n, buf_.size() - start);
  std::memcpy(out, buf_.data() + start, first);
  std::memcpy(out + first, buf_.data(), n - first);
}

void ByteRing::consume(std::size_t n) {
  head_ = (head_ + n) & (buf_.size() - 1);
  size_ -= n;
  if (size_ == 0) head_ = 0;
}

// --- EventLoop ---------------------------------------------------------------

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1() failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw std::runtime_error("eventfd() failed");
  }
  register_fd(wake_fd_, kWakeTag);
}

EventLoop::~EventLoop() {
  stop();
  // Closed only here: post() may still write the eventfd while stop() runs.
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::register_fd(int fd, std::uint64_t tag) {
  epoll_event ev{};
  // Every fd is registered once, edge-triggered, for both directions: the
  // loop drains each readiness edge to EAGAIN, so no EPOLL_CTL_MOD churn is
  // ever needed. (The wake/listen fds only ever report EPOLLIN.)
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error(std::string("epoll_ctl(ADD) failed: ") + std::strerror(errno));
  }
}

void EventLoop::apply_socket_options(int fd, const Options& options) {
  set_nonblocking(fd);
  set_nodelay(fd);
  if (options.sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.sndbuf, sizeof(options.sndbuf));
  }
  if (options.rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &options.rcvbuf, sizeof(options.rcvbuf));
  }
}

EventLoop::ServiceId EventLoop::add_service(Handler handler, Options options) {
  if (thread_.joinable()) throw std::logic_error("EventLoop::add_service() after start()");
  auto service = std::make_unique<Service>();
  service->handler = std::move(handler);
  service->options = options;
  services_.push_back(std::move(service));
  return services_.size() - 1;
}

void EventLoop::listen(ServiceId id, BoundListener listener) {
  Service& service = *services_.at(id);
  if (service.listen_fd >= 0) throw std::logic_error("EventLoop service already listening");
  if (listener.fd < 0) listener = bind_loopback_listener(listener.port);
  apply_socket_options(listener.fd, service.options);
  service.listen_fd = listener.fd;
  service.listen_port = listener.port;
  register_fd(listener.fd, kListenerTag | id);
}

void EventLoop::set_tick(std::function<Duration()> tick) { tick_ = std::move(tick); }

void EventLoop::start() {
  {
    std::lock_guard lock(mu_);
    phase_ = Phase::kRunning;
  }
  thread_ = std::thread([this] { run(); });
  loop_tid_.store(thread_.get_id());
}

void EventLoop::stop() {
  {
    std::lock_guard lock(mu_);
    if (phase_ == Phase::kRunning) phase_ = Phase::kStopping;
  }
  if (thread_.joinable()) {
    wake();
    thread_.join();
  }
  // This thread stands in for the loop thread: it runs what was posted while
  // the loop was exiting until the queue stays empty; from then on post()
  // and call() run inline.
  loop_tid_.store(std::this_thread::get_id());
  for (;;) {
    std::vector<std::function<void()>> tasks;
    {
      std::lock_guard lock(mu_);
      if (tasks_.empty()) {
        phase_ = Phase::kIdle;
        break;
      }
      tasks.swap(tasks_);
    }
    for (auto& task : tasks) task();
  }
  loop_tid_.store(std::thread::id());
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  flush_queue_.clear();
  for (auto& service : services_) {
    if (service->listen_fd >= 0) ::close(service->listen_fd);
    service->listen_fd = -1;
  }
}

bool EventLoop::enqueue(std::function<void()>& task) const {
  bool was_empty;
  {
    std::lock_guard lock(mu_);
    if (phase_ == Phase::kIdle) return false;
    was_empty = tasks_.empty();
    tasks_.push_back(std::move(task));
  }
  // A non-empty queue already has a wake pending.
  if (was_empty) wake();
  return true;
}

void EventLoop::post(std::function<void()> task) const {
  if (!enqueue(task)) task();
}

bool EventLoop::run_posted() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard lock(mu_);
    if (phase_ != Phase::kRunning) return false;
    tasks.swap(tasks_);
  }
  for (auto& task : tasks) task();
  return true;
}

void EventLoop::wake() const {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::check_loop_thread(const char* member) const {
  const std::thread::id loop = loop_tid_.load();
  if (loop != std::thread::id() && loop != std::this_thread::get_id()) {
    throw std::logic_error(std::string("EventLoop::") + member +
                           " called off the loop thread; post() it instead");
  }
}

EventLoop::ConnId EventLoop::adopt(int fd, Service* service, bool inbound) {
  try {
    register_fd(fd, next_id_);
  } catch (const std::runtime_error&) {
    ::close(fd);
    return 0;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->id = next_id_++;
  conn->service = service;
  // Even an instantly-successful loopback connect() goes through the
  // "connecting" state: registering with EPOLLET reports current readiness
  // as an initial edge, so the loop's first EPOLLOUT completes the connect
  // and fires on_open uniformly on the loop thread.
  conn->connecting = !inbound;
  const ConnId id = conn->id;
  conns_.emplace(id, std::move(conn));
  (inbound ? service->stats.accepted : service->stats.connected)
      .fetch_add(1, std::memory_order_relaxed);
  return id;
}

EventLoop::ConnId EventLoop::connect(ServiceId id, std::uint16_t port) {
  check_loop_thread("connect()");
  Service* service = services_.at(id).get();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  apply_socket_options(fd, service->options);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return 0;
  }
  return adopt(fd, service, /*inbound=*/false);
}

EventLoop::SendResult EventLoop::send(ConnId id, const std::vector<std::uint8_t>& frame) {
  check_loop_thread("send()");
  Conn* conn = find(id);
  if (!conn || conn->doomed) return SendResult::kClosed;
  const Options& options = conn->service->options;
  if (conn->out.size() + frame.size() > options.max_outbuf_bytes) {
    if (options.evict_on_overflow) {
      // Slow client: its output ring is full because it stopped reading.
      // Cut it loose rather than let it pin server memory.
      conn->service->stats.evicted_slow.fetch_add(1, std::memory_order_relaxed);
      conn->doomed = true;
      queue_flush(conn);
    }
    return SendResult::kOverflow;
  }
  conn->out.append(frame.data(), frame.size());
  conn->service->stats.frames_out.fetch_add(1, std::memory_order_relaxed);
  // The end-of-iteration flush pass picks the connection up, coalescing many
  // frames per write().
  queue_flush(conn);
  return SendResult::kOk;
}

void EventLoop::close(ConnId id) {
  check_loop_thread("close()");
  Conn* conn = find(id);
  if (!conn || conn->doomed) return;
  conn->doomed = true;
  queue_flush(conn);
}

void EventLoop::queue_flush(Conn* conn) {
  if (conn->want_flush) return;
  conn->want_flush = true;
  flush_queue_.push_back(conn->id);
}

std::size_t EventLoop::outbuf_bytes(ConnId id) const {
  check_loop_thread("outbuf_bytes()");
  const Conn* conn = find(id);
  return conn ? conn->out.size() : 0;
}

std::size_t EventLoop::connection_count() const {
  check_loop_thread("connection_count()");
  return conns_.size();
}

EventLoop::Conn* EventLoop::find(ConnId id) const {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void EventLoop::accept_ready(Service* service) {
  for (;;) {
    const int fd = testhooks::accept_fn(service->listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;  // signal mid-accept; connection still queued
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        LOG_WARN("event loop: accept() failed: " << std::strerror(errno));
      }
      break;
    }
    apply_socket_options(fd, service->options);
    const ConnId id = adopt(fd, service, /*inbound=*/true);
    if (id != 0 && service->handler.on_open) service->handler.on_open(id, true);
  }
}

void EventLoop::read_ready(Conn* conn) {
  Service& service = *conn->service;
  bool peer_closed = false;
  for (;;) {
    auto [buf, cap] = conn->in.tail_span(kReadChunk);
    const ssize_t n = testhooks::recv_fn(conn->fd, buf, cap, 0);
    if (n > 0) {
      conn->in.produce(static_cast<std::size_t>(n));
      service.stats.bytes_in.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    } else if (n == 0) {
      peer_closed = true;  // orderly shutdown; deliver what already arrived
      break;
    } else {
      // errno is only meaningful on a negative return. EINTR means a signal
      // landed mid-syscall: the connection is healthy, retry immediately.
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      teardown(conn, true);
      return;
    }
  }
  std::vector<std::vector<std::uint8_t>> frames;
  bool corrupt = false;
  try {
    parse_frames(conn->in, frames);
  } catch (const DecodeError& e) {
    service.stats.decode_errors.fetch_add(1, std::memory_order_relaxed);
    LOG_WARN("event loop: closing connection " << conn->id << " after frame decode error: "
                                               << e.what());
    corrupt = true;
  }
  const ConnId id = conn->id;
  if (!frames.empty()) {
    // The frames before a corrupt one are the stream's intact prefix: they
    // still deliver.
    service.stats.frames_in.fetch_add(frames.size(), std::memory_order_relaxed);
    if (service.handler.on_frames) service.handler.on_frames(id, std::move(frames));
  }
  if (corrupt || peer_closed) {
    // Looked up again: the handler may have flushed the connection away.
    if (Conn* still = find(id)) teardown(still, true);
  }
}

void EventLoop::flush_conn(Conn* conn) {
  conn->want_flush = false;
  while (!conn->out.empty()) {
    const auto [data, len] = conn->out.head_span();
    const ssize_t n = testhooks::send_fn(conn->fd, data, len, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.consume(static_cast<std::size_t>(n));
      conn->service->stats.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                               std::memory_order_relaxed);
    } else if (n == 0) {
      // No bytes accepted but no error either; errno is stale here and must
      // not be consulted. The socket did not report itself full, so no
      // writability edge is coming: queue a retry for the next iteration and
      // make sure that iteration runs.
      queue_flush(conn);
      wake();
      break;
    } else if (errno == EINTR) {
      continue;  // signal mid-send; the connection is fine
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;  // kernel buffer full; EPOLLET delivers an edge when it drains
    } else {
      teardown(conn, true);
      return;
    }
  }
}

void EventLoop::flush() {
  check_loop_thread("flush()");
  std::vector<ConnId> queue;
  queue.swap(flush_queue_);
  for (const ConnId id : queue) {
    Conn* conn = find(id);
    if (!conn) continue;
    if (conn->doomed) {
      teardown(conn, true);
      continue;
    }
    flush_conn(conn);
  }
}

void EventLoop::teardown(Conn* conn, bool deliver_close) {
  const auto it = conns_.find(conn->id);
  if (it == conns_.end()) return;
  std::unique_ptr<Conn> owned = std::move(it->second);
  conns_.erase(it);
  ::close(owned->fd);
  owned->service->stats.closed.fetch_add(1, std::memory_order_relaxed);
  if (deliver_close && owned->service->handler.on_close) {
    owned->service->handler.on_close(owned->id);
  }
}

int EventLoop::run_tick() {
  constexpr Duration kMaxSleep = from_ms(100);  // bounds shutdown on a quiet loop
  const Duration sleep = tick_ ? std::clamp<Duration>(tick_(), 0, kMaxSleep) : kMaxSleep;
  // Round up: waking before the deadline would only spin until it passes.
  return static_cast<int>((sleep + 999) / 1000);
}

void EventLoop::run() {
  loop_tid_.store(std::this_thread::get_id());
  std::vector<epoll_event> events(256);
  int timeout_ms = 0;  // the first iteration runs at once: tasks, tick, flush
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                               timeout_ms);
    if (n < 0 && errno != EINTR) break;
    // Clear the eventfd before taking the queue: a post() racing this
    // iteration either lands in this batch or wakes the next iteration.
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 != kWakeTag) continue;
      std::uint64_t drain;
      while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
      }
      break;
    }
    if (!run_posted()) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t ev = events[i].events;
      if (tag == kWakeTag) continue;
      if (tag & kListenerTag) {
        Service* service = services_[tag & ~kListenerTag].get();
        service->served = true;
        accept_ready(service);
        continue;
      }
      Conn* conn = find(tag);
      if (!conn) continue;  // torn down earlier this iteration
      Service* service = conn->service;
      service->served = true;
      if (ev & EPOLLERR) {
        teardown(conn, true);
        continue;
      }
      if (ev & EPOLLOUT) {
        if (std::exchange(conn->connecting, false)) {
          int err = 0;
          socklen_t len = sizeof(err);
          ::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            teardown(conn, true);
            continue;
          }
          if (service->handler.on_open) service->handler.on_open(conn->id, false);
        }
        flush_conn(conn);
        conn = find(tag);
        if (!conn) continue;  // flush hit a fatal error
      }
      if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) read_ready(conn);
    }
    for (auto& service : services_) {
      if (std::exchange(service->served, false)) {
        service->stats.wakeups.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // The tick runs the owner's timers and Ready drain; then the
    // end-of-iteration output pass writes every connection send() touched
    // this iteration — responses generated in on_frames, tasks or the tick —
    // many frames per write().
    timeout_ms = run_tick();
    flush();
  }
}

}  // namespace escape::net
