// The four workloads (see perfbench/README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string data_dir;  ///< this run's private directory on a real filesystem
};

struct Result {
  /// The gated end-to-end metrics, identical names on every workload.
  Metrics e2e;
  /// The same numbers (and the ungated ones) under their workload-specific
  /// names: lat_p99_ms, unavail_max_ms, knee_ops, rejoin_ms, ...
  Metrics named;
  /// Per-layer metrics; filled by the traced run only.
  Metrics layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> violations;  ///< any entry fails the run
  std::vector<std::string> notes;       ///< printed before the result
};

/// Runs one workload. Throws std::runtime_error when the system under test
/// cannot be brought up or driven at all.
Result run_workload(const RunArgs& args);

}  // namespace perfbench
