// Host and build fingerprint, printed with every result, and the process
// counters (getrusage, /proc/self/status) the benchmark diffs around a
// measured window.
#pragma once

#include <string>

namespace perfbench {

struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string build_type;
  bool ndebug = false;  ///< set: ReadySequenceChecker is compiled out
  std::string fs_type;  ///< filesystem of the data directory
  double fsync_p50_ms = 0, fsync_p99_ms = 0;  ///< raw 512 B write + fsync there
};

/// Probes the host, the build and `data_dir` (which must exist).
Fingerprint fingerprint(const std::string& data_dir);

/// Why a result from this host or build would measure nothing useful
/// (a Debug build; a data directory whose fsync is a no-op); empty when fine.
std::string refusal(const Fingerprint& fp);

std::string describe(const Fingerprint& fp);

struct ProcStats {
  double cpu_s = 0;          ///< user + system time of the whole process
  double peak_rss_mb = 0;    ///< high-water resident set
  double ctx_switches = 0;   ///< voluntary + involuntary
  double threads = 0;        ///< current thread count
};

ProcStats proc_stats();

}  // namespace perfbench
