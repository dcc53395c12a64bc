// Open-loop load harness for the real-socket serving layer (fig16).
//
// Three pieces:
//
//   * workload generation — YCSB-style profiles (read-heavy, write-heavy,
//     zipfian hot-key) turned into kv::Commands by a deterministic Rng
//     stream, with the standard Gray et al. zipfian generator for skew;
//
//   * two phase-A servers speaking serve::kv_wire without consensus, so the
//     serving layer itself can be benched in isolation: DirectKvService (the
//     epoll EventLoop in serving mode) versus ThreadPerConnServer (an honest
//     blocking thread-per-connection design: one thread per client, a global
//     store mutex, one write() per response — the model the tentpole
//     replaced);
//
//   * the driver — run_open_loop() submits at a fixed arrival rate
//     regardless of completions (queueing delay is part of the measured
//     latency, which is what makes the kill-the-leader mode honest: a stalled
//     cluster accumulates arrivals instead of pausing the clock). It records
//     per-op latency and the largest gap between consecutive successful
//     completions — the client-visible unavailability a leader failure
//     causes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "kv/kv_store.h"
#include "net/event_loop.h"
#include "serve/kv_client.h"

namespace escape::bench {

/// YCSB zipfian generator over [0, n): item 0 is the hottest key. Gray et
/// al.'s closed-form method — no rejection loop, O(1) per draw after O(n)
/// setup. Requires theta in (0, 1).
class ZipfianGen {
 public:
  ZipfianGen(std::uint64_t n, double theta);
  std::uint64_t next(Rng& rng);

 private:
  std::uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

/// One workload mix.
struct Profile {
  std::string name;
  double read_fraction = 0.5;
  bool zipfian = false;     ///< false: uniform key choice
  double theta = 0.99;      ///< zipfian skew (YCSB default)
  std::uint64_t key_count = 1000;
  std::size_t value_size = 64;
};

Profile read_heavy_profile();   ///< 95% Get, uniform keys
Profile write_heavy_profile();  ///< 50% Put, uniform keys
Profile zipfian_hot_profile();  ///< 95% Get, zipfian(0.99) hot keys
Profile write_only_profile();   ///< 100% Put (leader-kill measurements)

/// Draws the next command of `profile` (op + key + value; the client stamps
/// session identity).
kv::Command next_command(const Profile& profile, ZipfianGen& zipf, Rng& rng);

/// Aggregated outcome of one load run.
struct LoadResult {
  Sample latency_ms;  ///< successful ops only, submit -> completion
  std::size_t submitted = 0;
  std::size_t ok = 0;
  std::size_t timeout = 0;
  std::size_t failed = 0;  ///< terminal non-ok, non-timeout (client stopped)
  double duration_s = 0;
  /// Largest interval with no successful completion: max gap between
  /// consecutive successes, including run-start -> first and last -> run-end.
  double max_gap_ms = 0;

  double throughput() const { return duration_s > 0 ? static_cast<double>(ok) / duration_s : 0; }
};

/// Submits at a fixed arrival rate for `duration`, round-robin across
/// `clients`, then drains. Open loop: arrivals never wait for completions.
LoadResult run_open_loop(const std::vector<serve::KvClient*>& clients, const Profile& profile,
                         double rate_per_s, Duration duration, std::uint64_t seed);

/// Outcome of one pipelined phase-A measurement (see run_pipelined).
struct PipelinedResult {
  Sample batch_rtt_ms;  ///< one sample per batch round trip
  std::size_t ok = 0;   ///< requests completed (responses received)
  double duration_s = 0;

  double throughput() const { return duration_s > 0 ? static_cast<double>(ok) / duration_s : 0; }
};

/// Phase-A measurement client: `conns` blocking loopback sockets, each driven
/// by its own thread that writes a pipelined batch of `batch` requests as ONE
/// buffer, then reads the batch's responses back, repeating until `duration`
/// elapses. The pipelining isolates *server* cost per op: the client spends
/// ~2 syscalls per batch regardless of which server design answers, so the
/// throughput difference between servers is the servers', not the client's.
/// Records one latency sample per batch round trip.
PipelinedResult run_pipelined(std::uint16_t port, const Profile& profile, std::size_t conns,
                              std::size_t batch, Duration duration, std::uint64_t seed);

/// Phase-A server: the epoll EventLoop in serving mode fronting one KvStore,
/// no consensus. Commands execute on the loop thread; responses coalesce
/// into few write()s per readiness burst.
class DirectKvService {
 public:
  DirectKvService();
  ~DirectKvService();

  void start();  ///< binds 127.0.0.1 port 0
  void stop();
  std::uint16_t port() const { return loop_.port(service_); }
  const net::EventLoopStats& stats() const { return loop_.stats(service_); }

 private:
  void on_frames(net::EventLoop::ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames);

  net::EventLoop loop_;
  net::EventLoop::ServiceId service_;
  kv::KvStore store_;  ///< loop-thread-only
};

/// Phase-A baseline: the blocking thread-per-connection server the tentpole
/// replaced. One OS thread per client connection, blocking recv/send, one
/// global mutex around the store, one write() per response.
class ThreadPerConnServer {
 public:
  ThreadPerConnServer();
  ~ThreadPerConnServer();

  void start();  ///< binds 127.0.0.1 port 0
  void stop();
  std::uint16_t port() const { return port_; }
  std::size_t peak_connections() const { return peak_connections_; }

 private:
  void accept_loop();
  void serve_conn(int fd);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread acceptor_;

  std::mutex mu_;  // guards store_, conns_, workers_, peak_connections_
  kv::KvStore store_;
  std::vector<int> conns_;
  std::vector<std::thread> workers_;
  std::size_t peak_connections_ = 0;
};

}  // namespace escape::bench
