// Asynchronous KV client over serve::kv_wire.
//
// One KvClient drives one EventLoop (client-only, no listener) holding
// `connections_per_server` connections to every server, and submits commands
// with automatic leader tracking: a kNotLeader response naming another known
// server resends to it at once (a command redirected that way that bounces
// again waits a backoff, so two servers hinting each other cannot spin it),
// one without a usable hint rotates the target and backs off, kRetry and
// connection drops resubmit after a backoff, and a command that gets no
// final answer by its deadline completes with Status::kTimeout. The open-loop load generator
// (bench/loadgen) measures leader-failover unavailability as the gap this
// retry machinery leaves between successful completions.
//
// One thread: submit() posts to the loop, and responses, connection drops
// and the loop's tick (deadlines, backoff resends) run on it, so the
// client's tables need no lock.
//
// Sessions and write concurrency: the server's exactly-once dedup keys on
// (client_id, sequence) and caches only the LAST result per session, which
// makes a session safe only with one outstanding write at a time. The
// client therefore multiplexes writes over `lanes` independent sessions
// (client_id = base + lane, sequence monotone per lane): each lane has at
// most one write in flight and queues the rest, so total write concurrency
// is `lanes` while every session stays sequential. Reads (kGet) bypass
// sessions entirely (they travel the read-index path, not the log) and run
// with unbounded concurrency.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/clock.h"
#include "kv/kv_command.h"
#include "net/event_loop.h"
#include "serve/kv_wire.h"

namespace escape::serve {

class KvClient {
 public:
  struct Options {
    Duration timeout = from_ms(2000);  ///< total per-command deadline
    int lanes = 16;                    ///< concurrent write sessions
    int connections_per_server = 1;
  };

  /// Terminal outcome: kOk (result valid), kTimeout, or — after stop() —
  /// kRetry for commands still in flight.
  using Callback = std::function<void(Status, const kv::CommandResult&)>;

  /// `client_ports` maps each server to its client-facing port on
  /// 127.0.0.1. `base_client_id` seeds the session ids; two concurrently
  /// live clients must keep their [base, base + lanes) ranges disjoint.
  KvClient(std::map<ServerId, std::uint16_t> client_ports, std::uint64_t base_client_id,
           Options options);
  KvClient(std::map<ServerId, std::uint16_t> client_ports, std::uint64_t base_client_id)
      : KvClient(std::move(client_ports), base_client_id, Options()) {}
  ~KvClient();

  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  void start();
  /// Stops the loop and completes every command not yet answered — in
  /// flight, queued on a lane, or posted but not yet run — with kRetry.
  /// Idempotent; a submit after stop() completes kRetry at once.
  void stop();

  /// Thread-safe, never blocks: posts the command to the client loop. The
  /// client stamps the command's session identity (client_id, sequence);
  /// callers only set op/key/value/expected. The deadline counts from this
  /// call. `done` runs on the loop thread and must not block; it may submit.
  void submit(kv::Command command, Callback done);

  /// Commands not yet completed (flow-control probe for the load generator).
  std::size_t outstanding() const;

 private:
  struct Pending {
    Request request;
    Callback done;
    TimePoint deadline = 0;
    TimePoint not_before = 0;  ///< earliest (re)send time
    bool in_flight = false;
    bool redirected = false;  ///< sent at once on a kNotLeader hint, no backoff since
    int lane = -1;            ///< >= 0: the write session this command occupies
    net::EventLoop::ConnId sent_conn = 0;
  };
  struct Lane {
    std::uint64_t next_sequence = 1;
    std::uint64_t active = 0;  ///< request_id of the in-flight write (0: idle)
    std::deque<std::uint64_t> waiting;
  };

  // Loop thread.
  void begin(kv::Command command, Callback done, TimePoint submitted);
  void on_frames(net::EventLoop::ConnId conn, std::vector<std::vector<std::uint8_t>>&& frames);
  void on_conn_closed(net::EventLoop::ConnId conn);
  /// Times out expired commands, resends due ones; returns the time until
  /// the earliest remaining deadline or backoff.
  Duration tick();
  void try_send(std::uint64_t request_id, Pending& pending, TimePoint now);
  void retry_later(Pending& pending, TimePoint now);
  net::EventLoop::ConnId conn_for(ServerId server, std::uint64_t request_id);
  void rotate_leader();
  /// Completes the request and, for a write, activates the lane's next
  /// queued command.
  void finish(std::uint64_t request_id, Status status, const kv::CommandResult& result,
              TimePoint now);
  void complete(const Callback& done, Status status, const kv::CommandResult& result);

  const std::map<ServerId, std::uint16_t> ports_;
  const std::uint64_t base_client_id_;
  const Options options_;
  const std::vector<ServerId> servers_;
  SteadyClock clock_;

  net::EventLoop loop_;
  net::EventLoop::ServiceId service_;  ///< the client connections (no listener)

  // Loop thread only while the loop runs.
  std::map<std::uint64_t, Pending> pending_;
  std::vector<Lane> lanes_;
  std::uint64_t next_request_ = 1;
  std::uint64_t next_lane_ = 0;  ///< round-robin lane assignment
  ServerId leader_;
  std::map<ServerId, std::vector<net::EventLoop::ConnId>> conns_;
  std::map<net::EventLoop::ConnId, ServerId> conn_server_;
  bool closed_ = false;  ///< stop() failed everything; later submits fail at once

  std::atomic<std::size_t> outstanding_{0};  ///< submitted, callback not yet run
};

}  // namespace escape::serve
