// Inputs and the open-loop generator.
//
// Every input comes from the run's seed: which key each request touches, and
// whether it is a Get or a Put. Each Put writes a value that names its own
// sequence number and key, so a later Get (during the run or in the
// read-back check) can say exactly which write it observed.
//
// The generator is one thread driving one KvClient. Request i is due at
// start + i / rate whatever the cluster is doing; it is timed from that due
// time, and the generator's own lateness (submit - due) is recorded beside
// it (see stats.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/kv_client.h"
#include "stats.h"

namespace perfbench {

/// Microseconds on the process-wide steady clock. Every timestamp the
/// benchmark compares comes from here.
double now_us();

/// YCSB zipfian over [0, n) (Gray et al.): item 0 is the hottest key. The
/// same algorithm as bench/loadgen's ZipfianGen, kept here so that the
/// benchmark's inputs cannot shift when the figure harnesses change.
class Zipfian {
 public:
  Zipfian(std::uint64_t n, double theta);
  std::uint64_t next(escape::Rng& rng);

 private:
  std::uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

struct Mix {
  double put_fraction = 1.0;
  bool zipfian = false;  ///< false: uniform keys
  std::uint32_t keys = 2000;
  std::size_t value_bytes = 64;
};

std::string key_name(std::uint32_t key);
/// A value of `bytes` bytes that encodes (seq, key).
std::string value_for(std::uint64_t seq, std::uint32_t key, std::size_t bytes);
/// Recovers (seq, key) from value_for's output; false when malformed.
bool parse_value(const std::string& value, std::uint64_t& seq, std::uint32_t& key);

/// One generated request and what became of it.
struct Record : Op {
  std::uint32_t key = 0;
  std::uint64_t seq = 0;  ///< Put only: the value's sequence number
  bool put = false;
  std::uint64_t seen = 0;  ///< Get only: sequence number of the value read
  bool bad_read = false;   ///< Get returned nothing, or another key's value
};

/// The requests of one open-loop window, after every one has finished.
struct Window {
  double start = 0;  ///< µs, now_us() clock
  double end = 0;    ///< start + duration: when the generator stopped
  std::size_t backlog_end = 0;  ///< still outstanding when the generator stopped
  std::vector<Record> ops;
};

class Generator {
 public:
  Generator(escape::serve::KvClient& client, Mix mix, std::uint64_t seed);

  /// Offers `rate` requests per second for `duration_s`, then waits until
  /// every request has finished (the client's deadline bounds the wait).
  Window run(double rate, double duration_s);

  /// Writes every key once, `window` Puts in flight at a time (closed
  /// loop). Returns when the first Put was acknowledged (now_us() clock),
  /// or nothing when any Put failed.
  std::optional<double> preload(std::size_t window);

  /// Reads every key back and checks that each holds the value of a Put the
  /// client issued for it, and that no acknowledged Put was lost: no other
  /// acknowledged Put to the key started after the observed write finished.
  /// Appends one message per violation.
  void check_readback(std::vector<std::string>& violations);

 private:
  struct PutLog {
    std::uint32_t key = 0;
    double submit = 0;
    double done = 0;
    bool ok = false;
  };
  Record draw();
  Record put_of(std::uint32_t key);
  /// Submits every record at once and waits for all of them (closed batch).
  void run_batch(std::vector<Record>& ops);
  void remember(const std::vector<Record>& ops);

  escape::serve::KvClient& client_;
  const Mix mix_;
  escape::Rng rng_;
  Zipfian zipf_;
  std::uint64_t next_seq_ = 1;
  std::vector<PutLog> puts_;  ///< indexed by seq - 1
};

}  // namespace perfbench
