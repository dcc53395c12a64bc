#include "openloop.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace perfbench {

using escape::serve::Status;

double now_us() {
  using namespace std::chrono;
  return static_cast<double>(
             duration_cast<nanoseconds>(steady_clock::now().time_since_epoch()).count()) /
         1e3;
}

Zipfian::Zipfian(std::uint64_t n, double theta) : n_(std::max<std::uint64_t>(1, n)), theta_(theta) {
  zetan_ = 0;
  for (std::uint64_t i = 1; i <= n_; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) / (1.0 - zeta2 / zetan_);
}

std::uint64_t Zipfian::next(escape::Rng& rng) {
  const double u = rng.uniform_real(0.0, 1.0);
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto item = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                               std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(item, n_ - 1);
}

std::string key_name(std::uint32_t key) {
  std::string name = "k";
  name += std::to_string(key);
  return name;
}

std::string value_for(std::uint64_t seq, std::uint32_t key, std::size_t bytes) {
  std::string v = std::to_string(seq) + ":" + std::to_string(key) + ":";
  v.resize(std::max(bytes, v.size()), static_cast<char>('a' + seq % 26));
  return v;
}

bool parse_value(const std::string& value, std::uint64_t& seq, std::uint32_t& key) {
  const auto a = value.find(':');
  const auto b = a == std::string::npos ? a : value.find(':', a + 1);
  if (b == std::string::npos) return false;
  try {
    seq = std::stoull(value.substr(0, a));
    key = static_cast<std::uint32_t>(std::stoul(value.substr(a + 1, b - a - 1)));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

namespace {

/// Shared with every completion callback; outlives the window if a
/// callback runs late.
struct Flight {
  std::vector<Record> ops;
  std::atomic<std::size_t> finished{0};
};

escape::kv::Command command_of(const Record& r, std::size_t value_bytes) {
  escape::kv::Command cmd;
  cmd.key = key_name(r.key);
  if (r.put) {
    cmd.op = escape::kv::Op::kPut;
    cmd.value = value_for(r.seq, r.key, value_bytes);
  } else {
    cmd.op = escape::kv::Op::kGet;
  }
  return cmd;
}

void submit(escape::serve::KvClient& client, const std::shared_ptr<Flight>& flight,
            std::size_t i, std::size_t value_bytes) {
  client.submit(command_of(flight->ops[i], value_bytes),
                [flight, i](Status status, const escape::kv::CommandResult& result) {
                  Record& r = flight->ops[i];
                  r.done = now_us();
                  if (status == Status::kOk) {
                    r.ok = true;
                    if (!r.put) {
                      std::uint32_t key = 0;
                      r.bad_read = !result.ok || !parse_value(result.value, r.seen, key) ||
                                   key != r.key;
                    }
                  } else {
                    r.failed = true;
                  }
                  flight->finished.fetch_add(1, std::memory_order_release);
                });
}

/// Waits until every request of `flight` has finished. The client's own
/// deadline completes stragglers, so running past `bound_us` means the
/// client is wedged, which no measurement can survive.
void wait_all(const Flight& flight, double bound_us) {
  const double give_up = now_us() + bound_us;
  while (flight.finished.load(std::memory_order_acquire) < flight.ops.size()) {
    if (now_us() > give_up) throw std::runtime_error("client never finished its requests");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

constexpr double kWaitBoundUs = 8e6;  // client timeout (2 s) plus margin

/// Sleeps until `at` (now_us() clock) without spinning, so the generator
/// costs almost no CPU of its own; its lateness is what stats.h reports.
void sleep_until_us(double at) {
  const auto ns = static_cast<long long>(at * 1e3);
  timespec ts{static_cast<time_t>(ns / 1'000'000'000), static_cast<long>(ns % 1'000'000'000)};
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

}  // namespace

Generator::Generator(escape::serve::KvClient& client, Mix mix, std::uint64_t seed)
    : client_(client), mix_(mix), rng_(seed), zipf_(mix.keys, 0.99) {}

Record Generator::put_of(std::uint32_t key) {
  Record r;
  r.put = true;
  r.key = key;
  r.seq = next_seq_++;
  return r;
}

Record Generator::draw() {
  const auto key = static_cast<std::uint32_t>(
      mix_.zipfian ? zipf_.next(rng_) : rng_.uniform_int(0, mix_.keys - 1));
  if (rng_.chance(mix_.put_fraction)) return put_of(key);
  Record r;
  r.key = key;
  return r;
}

Window Generator::run(double rate, double duration_s) {
  auto flight = std::make_shared<Flight>();
  const auto n = static_cast<std::size_t>(rate * duration_s);
  flight->ops.resize(n);
  // Timer slack would add ~50 µs of lateness to every sleep, and at equal
  // priority the cluster's own threads keep the generator off the CPU past
  // its due times. Both are best effort (raising priority needs privilege).
  ::prctl(PR_SET_TIMERSLACK, 1);
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), -10);
  Window w;
  // A short lead lets the first due time be met rather than already missed.
  w.start = now_us() + 200;
  w.end = w.start + duration_s * 1e6;
  for (std::size_t i = 0; i < n; ++i) {
    Record& r = flight->ops[i];
    const double due = w.start + due_us(i, rate);
    r = draw();
    r.due = due;
    sleep_until_us(due);
    r.submit = now_us();
    submit(client_, flight, i, mix_.value_bytes);
  }
  while (now_us() < w.end) std::this_thread::sleep_for(std::chrono::microseconds(100));
  w.backlog_end = n - flight->finished.load(std::memory_order_acquire);
  wait_all(*flight, kWaitBoundUs);
  w.ops = flight->ops;
  remember(w.ops);
  return w;
}

void Generator::run_batch(std::vector<Record>& ops) {
  auto flight = std::make_shared<Flight>();
  flight->ops = std::move(ops);
  const double t = now_us();
  for (std::size_t i = 0; i < flight->ops.size(); ++i) {
    flight->ops[i].due = t;
    flight->ops[i].submit = t;
    submit(client_, flight, i, mix_.value_bytes);
  }
  wait_all(*flight, kWaitBoundUs);
  ops = flight->ops;
}

std::optional<double> Generator::preload(std::size_t window) {
  double first_ack = 0;
  for (std::uint32_t key = 0; key < mix_.keys;) {
    std::vector<Record> batch;
    for (; key < mix_.keys && batch.size() < window; ++key) batch.push_back(put_of(key));
    run_batch(batch);
    remember(batch);
    for (const Record& r : batch) {
      if (!r.ok) return std::nullopt;
      if (first_ack == 0 || r.done < first_ack) first_ack = r.done;
    }
  }
  return first_ack;
}

void Generator::remember(const std::vector<Record>& ops) {
  for (const Record& r : ops) {
    if (!r.put) continue;
    if (puts_.size() < r.seq) puts_.resize(r.seq);
    puts_[r.seq - 1] = PutLog{r.key, r.submit, r.done, r.ok};
  }
}

void Generator::check_readback(std::vector<std::string>& violations) {
  // Latest start of an acknowledged Put, per key.
  std::vector<double> last_acked_submit(mix_.keys, -1);
  for (const PutLog& p : puts_) {
    if (p.ok) last_acked_submit[p.key] = std::max(last_acked_submit[p.key], p.submit);
  }
  constexpr std::uint32_t kBatch = 256;
  for (std::uint32_t first = 0; first < mix_.keys; first += kBatch) {
    std::vector<Record> batch;
    for (std::uint32_t key = first; key < std::min(mix_.keys, first + kBatch); ++key) {
      Record r;
      r.key = key;
      batch.push_back(r);
    }
    run_batch(batch);
    for (const Record& r : batch) {
      const std::string where = "read-back of " + key_name(r.key) + ": ";
      if (!r.ok) {
        violations.push_back(where + "request failed");
      } else if (r.bad_read || r.seen == 0 || r.seen > puts_.size() ||
                 puts_[r.seen - 1].key != r.key) {
        violations.push_back(where + "value was never written to this key");
      } else if (const PutLog& seen = puts_[r.seen - 1];
                 seen.ok && last_acked_submit[r.key] > seen.done) {
        // An acknowledged Put began after the observed write had finished,
        // so it must have overwritten it: the acknowledged Put was lost.
        violations.push_back(where + "lost an acknowledged Put (read seq " +
                             std::to_string(r.seen) + ")");
      }
    }
  }
}

}  // namespace perfbench
