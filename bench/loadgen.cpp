#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/clock.h"
#include "rpc/wire.h"
#include "serve/kv_wire.h"

namespace escape::bench {
namespace {

/// Thread-safe completion recorder, shared via shared_ptr with every
/// in-flight callback so a late completion (after the drain window) cannot
/// touch freed state.
struct Tracker {
  std::mutex mu;
  SteadyClock clock;
  Sample latency_ms;
  std::size_t ok = 0, timeout = 0, failed = 0;
  TimePoint last_success = 0;
  double max_gap_ms = 0;

  void record(serve::Status status, TimePoint submitted) {
    const TimePoint now = clock.now();
    std::lock_guard lock(mu);
    if (status == serve::Status::kOk) {
      ++ok;
      latency_ms.add(to_ms_f(now - submitted));
      max_gap_ms = std::max(max_gap_ms, to_ms_f(now - last_success));
      last_success = now;
    } else if (status == serve::Status::kTimeout) {
      ++timeout;
    } else {
      ++failed;
    }
  }
};

std::size_t total_outstanding(const std::vector<serve::KvClient*>& clients) {
  std::size_t sum = 0;
  for (auto* client : clients) sum += client->outstanding();
  return sum;
}

/// Waits (bounded) for in-flight commands to resolve; client deadlines
/// backstop, so the bound only matters when a client is wedged.
void drain(const std::vector<serve::KvClient*>& clients, Duration bound) {
  SteadyClock clock;
  const TimePoint deadline = clock.now() + bound;
  while (total_outstanding(clients) > 0 && clock.now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

LoadResult finish(const std::shared_ptr<Tracker>& tracker, std::size_t submitted,
                  TimePoint start, TimePoint measure_end) {
  LoadResult result;
  std::lock_guard lock(tracker->mu);
  result.latency_ms = tracker->latency_ms;
  result.submitted = submitted;
  result.ok = tracker->ok;
  result.timeout = tracker->timeout;
  result.failed = tracker->failed;
  result.duration_s = static_cast<double>(measure_end - start) / 1e6;
  result.max_gap_ms = tracker->max_gap_ms;
  if (measure_end > tracker->last_success) {
    result.max_gap_ms =
        std::max(result.max_gap_ms, to_ms_f(measure_end - tracker->last_success));
  }
  return result;
}

}  // namespace

ZipfianGen::ZipfianGen(std::uint64_t n, double theta)
    : n_(std::max<std::uint64_t>(1, n)), theta_(theta) {
  zetan_ = 0;
  for (std::uint64_t i = 1; i <= n_; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) / (1.0 - zeta2 / zetan_);
}

std::uint64_t ZipfianGen::next(Rng& rng) {
  const double u = rng.uniform_real(0.0, 1.0);
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto item = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                               std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(item, n_ - 1);
}

Profile read_heavy_profile() { return Profile{"read_heavy", 0.95, false, 0.99, 1000, 64}; }
Profile write_heavy_profile() { return Profile{"write_heavy", 0.50, false, 0.99, 1000, 64}; }
Profile zipfian_hot_profile() { return Profile{"zipfian_hot", 0.95, true, 0.99, 1000, 64}; }
Profile write_only_profile() { return Profile{"write_only", 0.0, false, 0.99, 1000, 64}; }

kv::Command next_command(const Profile& profile, ZipfianGen& zipf, Rng& rng) {
  kv::Command cmd;
  const std::uint64_t item =
      profile.zipfian ? zipf.next(rng)
                      : static_cast<std::uint64_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(profile.key_count) - 1));
  cmd.key = "k" + std::to_string(item);
  if (rng.chance(profile.read_fraction)) {
    cmd.op = kv::Op::kGet;
  } else {
    cmd.op = kv::Op::kPut;
    cmd.value.assign(profile.value_size, static_cast<char>('a' + item % 26));
  }
  return cmd;
}

LoadResult run_open_loop(const std::vector<serve::KvClient*>& clients, const Profile& profile,
                         double rate_per_s, Duration duration, std::uint64_t seed) {
  auto tracker = std::make_shared<Tracker>();
  SteadyClock clock;
  Rng rng(seed);
  ZipfianGen zipf(profile.key_count, profile.theta);
  const TimePoint start = clock.now();
  tracker->last_success = start;
  const TimePoint deadline = start + duration;
  std::size_t submitted = 0;
  while (true) {
    const TimePoint now = clock.now();
    if (now >= deadline) break;
    // The open-loop contract: arrival i is due at start + i/rate no matter
    // how the cluster is doing — a stalled leader accumulates arrivals, so
    // outage time shows up as queueing latency, not a paused clock.
    const auto due =
        start + static_cast<Duration>(static_cast<double>(submitted) * 1e6 / rate_per_s);
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(std::min<Duration>(due - now, 500)));
      continue;
    }
    const TimePoint at = now;
    clients[submitted % clients.size()]->submit(
        next_command(profile, zipf, rng),
        [tracker, at](serve::Status status, const kv::CommandResult&) {
          tracker->record(status, at);
        });
    ++submitted;
  }
  drain(clients, from_ms(3000));
  return finish(tracker, submitted, start, deadline);
}

namespace {

/// Blocking loopback connect for the pipelined client.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t w = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

namespace {

/// Counts complete frames in a byte stream without buffering payloads: a
/// 12-byte header accumulator plus a payload-remaining counter. The
/// measurement client uses this instead of rpc::FrameReader so client-side
/// parsing cost stays negligible next to the server cost under test (frame
/// *content* is validated end-to-end by the serve tests, not here).
class FrameCounter {
 public:
  /// Returns the number of frames completed by this chunk.
  std::size_t feed(const std::uint8_t* data, std::size_t size) {
    std::size_t done = 0;
    while (size > 0) {
      if (payload_left_ > 0) {
        const std::size_t take = std::min(size, payload_left_);
        payload_left_ -= take;
        data += take;
        size -= take;
        if (payload_left_ == 0) {
          ++done;
          header_have_ = 0;
        }
        continue;
      }
      const std::size_t take = std::min(size, sizeof(header_) - header_have_);
      std::copy(data, data + take, header_ + header_have_);
      header_have_ += take;
      data += take;
      size -= take;
      if (header_have_ == sizeof(header_)) {
        payload_left_ = static_cast<std::size_t>(header_[4]) |
                        (static_cast<std::size_t>(header_[5]) << 8) |
                        (static_cast<std::size_t>(header_[6]) << 16) |
                        (static_cast<std::size_t>(header_[7]) << 24);
        if (payload_left_ == 0) {
          ++done;
          header_have_ = 0;
        }
      }
    }
    return done;
  }

 private:
  std::uint8_t header_[12];  ///< magic u16, version u8, flags u8, length u32, crc u32
  std::size_t header_have_ = 0;
  std::size_t payload_left_ = 0;
};

}  // namespace

PipelinedResult run_pipelined(std::uint16_t port, const Profile& profile, std::size_t conns,
                              std::size_t batch, Duration duration, std::uint64_t seed) {
  std::mutex mu;
  PipelinedResult total;
  std::vector<std::thread> threads;
  SteadyClock clock;
  const TimePoint deadline = clock.now() + duration;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(stream_seed(seed, c));
      ZipfianGen zipf(profile.key_count, profile.theta);
      // Pre-generate a handful of distinct batch buffers and cycle them:
      // workload generation (encode + CRC) runs outside the timed loop, so
      // the client's per-op cost in the loop is a share of one write() plus
      // the frame counter.
      constexpr std::size_t kPrebuilt = 8;
      std::vector<std::vector<std::uint8_t>> wires(kPrebuilt);
      for (auto& wire : wires) {
        for (std::size_t i = 0; i < batch; ++i) {
          serve::Request request;
          request.request_id = i;
          request.command = next_command(profile, zipf, rng);
          const auto frame = rpc::frame_payload(serve::encode_request(request));
          wire.insert(wire.end(), frame.begin(), frame.end());
        }
      }
      const int fd = connect_loopback(port);
      if (fd < 0) return;
      FrameCounter counter;
      std::uint8_t buf[1 << 16];
      Sample rtt_ms;
      std::size_t ok = 0;
      std::size_t round = 0;
      bool alive = true;
      while (alive && clock.now() < deadline) {
        // One buffer per batch: the whole pipeline ships in one write().
        const auto& wire = wires[round++ % kPrebuilt];
        const TimePoint t0 = clock.now();
        if (!send_all(fd, wire.data(), wire.size())) break;
        std::size_t got = 0;
        while (got < batch) {
          const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
          if (n == 0) {
            alive = false;
            break;
          }
          if (n < 0) {
            if (errno == EINTR) continue;
            alive = false;
            break;
          }
          got += counter.feed(buf, static_cast<std::size_t>(n));
        }
        if (got == batch) {
          rtt_ms.add(to_ms_f(clock.now() - t0));
          ok += batch;
        }
      }
      ::close(fd);
      std::lock_guard lock(mu);
      total.batch_rtt_ms.merge(rtt_ms);
      total.ok += ok;
    });
  }
  for (auto& t : threads) t.join();
  total.duration_s = static_cast<double>(clock.now() - (deadline - duration)) / 1e6;
  return total;
}

// --- DirectKvService ---------------------------------------------------------

DirectKvService::DirectKvService() {
  net::EventLoop::Handler handler;
  handler.on_frames = [this](net::EventLoop::ConnId conn,
                             std::vector<std::vector<std::uint8_t>>&& frames) {
    on_frames(conn, std::move(frames));
  };
  net::EventLoop::Options serving;
  serving.evict_on_overflow = true;
  service_ = loop_.add_service(std::move(handler), serving);
}

DirectKvService::~DirectKvService() { stop(); }

void DirectKvService::start() {
  loop_.listen(service_, net::bind_loopback_listener(0));
  loop_.start();
}

void DirectKvService::stop() { loop_.stop(); }

void DirectKvService::on_frames(net::EventLoop::ConnId conn,
                                std::vector<std::vector<std::uint8_t>>&& frames) {
  for (const auto& payload : frames) {
    const auto request = serve::decode_request(payload);
    if (!request) {
      loop_.close(conn);
      return;
    }
    serve::Response response;
    response.request_id = request->request_id;
    response.status = serve::Status::kOk;
    response.result = store_.execute(request->command);
    loop_.send(conn, rpc::frame_payload(serve::encode_response(response)));
  }
}

// --- ThreadPerConnServer -----------------------------------------------------

ThreadPerConnServer::ThreadPerConnServer() = default;

ThreadPerConnServer::~ThreadPerConnServer() { stop(); }

void ThreadPerConnServer::start() {
  const auto listener = net::bind_loopback_listener(0);
  listen_fd_ = listener.fd;
  port_ = listener.port;
  running_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void ThreadPerConnServer::stop() {
  if (!running_.exchange(false)) return;
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> workers;
  {
    std::lock_guard lock(mu_);
    // shutdown() unblocks the workers' blocking recv().
    for (const int fd : conns_) ::shutdown(fd, SHUT_RDWR);
    workers.swap(workers_);
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& worker : workers) worker.join();
  std::lock_guard lock(mu_);
  for (const int fd : conns_) ::close(fd);
  conns_.clear();
}

void ThreadPerConnServer::accept_loop() {
  // The listener is nonblocking (bind_loopback_listener); a sleep-poll
  // accept loop keeps teardown simple, and accept latency is irrelevant to
  // what the baseline measures.
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard lock(mu_);
    conns_.push_back(fd);
    peak_connections_ = std::max(peak_connections_, conns_.size());
    workers_.emplace_back([this, fd] { serve_conn(fd); });
  }
}

void ThreadPerConnServer::serve_conn(int fd) {
  // Accepted sockets do not inherit the listener's O_NONBLOCK: plain
  // blocking I/O, the model under test.
  rpc::FrameReader reader;
  std::uint8_t buf[1 << 16];
  try {
    while (running_.load()) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return;  // peer closed
      if (n < 0) {
        if (errno == EINTR) continue;
        return;
      }
      reader.feed(buf, static_cast<std::size_t>(n));
      while (auto payload = reader.next()) {
        const auto request = serve::decode_request(*payload);
        if (!request) return;
        serve::Response response;
        response.request_id = request->request_id;
        response.status = serve::Status::kOk;
        {
          std::lock_guard lock(mu_);
          response.result = store_.execute(request->command);
        }
        // One write() per response — the naive blocking design.
        const auto frame = rpc::frame_payload(serve::encode_response(response));
        std::size_t sent = 0;
        while (sent < frame.size()) {
          const ssize_t w = ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
          if (w < 0) {
            if (errno == EINTR) continue;
            return;
          }
          if (w == 0) return;
          sent += static_cast<std::size_t>(w);
        }
      }
    }
  } catch (const DecodeError&) {
    // corrupt stream; drop the connection
  }
}

}  // namespace escape::bench
