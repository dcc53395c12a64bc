// Per-layer timings taken from outside the layers: each one times calls into
// a module's public functions on inputs shaped like what the workload just
// observed (entries per AppendEntries, records per WAL sync, frame sizes),
// after the measured window so it cannot disturb it.
#pragma once

#include <cstddef>
#include <string>

#include "report.h"

namespace perfbench {

/// Shapes observed during the workload's window.
struct Shapes {
  double entries_per_ae = 1;
  double records_per_sync = 1;
  double request_frame_bytes = 100;  ///< mean client frame, request or response
  std::size_t value_bytes = 64;
};

/// Adds common.*, rpc.*, serve.codec_us, storage.append_batch_us,
/// storage.fsync_us (a FileWal in `data_dir`), kv.apply_us and core.*.
void time_layers(const Shapes& shapes, const std::string& data_dir, Metrics& out);

/// Adds core.patrol_us_n3 and core.patrol_us_n128 only.
void time_core(Metrics& out);

}  // namespace perfbench
