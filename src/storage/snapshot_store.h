// Durable snapshot storage.
//
// The Snapshot value type itself lives with the deterministic core in
// raft/snapshot.h (the core produces and consumes snapshots purely in
// memory); this header holds everything durable about it — the CRC-framed
// serialization and the stores the drivers persist through.
//
// FileSnapshotStore writes WAL-style: the whole snapshot goes to
// `<path>.tmp`, is fsynced, then atomically renamed over `<path>` and the
// directory is fsynced — a crash mid-write leaves the previous snapshot
// intact, and a CRC over the body rejects torn or corrupted files at load
// time.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "raft/snapshot.h"
#include "rpc/messages.h"

namespace escape::storage {

using Snapshot = ::escape::raft::Snapshot;

/// Serializes a snapshot into a CRC-framed buffer.
std::vector<std::uint8_t> encode_snapshot(const Snapshot& snapshot);

/// Parses a buffer produced by encode_snapshot; nullopt when malformed or
/// CRC-corrupt (a damaged snapshot is treated as absent, never installed).
std::optional<Snapshot> decode_snapshot(const std::vector<std::uint8_t>& buf);

/// Abstract durable store holding at most one snapshot (the newest wins).
class SnapshotStore {
 public:
  virtual ~SnapshotStore() = default;

  /// Durably replaces the stored snapshot (atomic: a crash mid-save keeps
  /// the previous snapshot for file-backed implementations).
  virtual void save(const Snapshot& snapshot) = 0;

  /// Loads the last saved snapshot; nullopt when none exists (or the stored
  /// one is corrupt).
  virtual std::optional<Snapshot> load() = 0;
};

/// Volatile store for simulation and tests; survives a simulated crash the
/// same way MemoryStateStore does (the host keeps the store while the node
/// object is destroyed).
class MemorySnapshotStore final : public SnapshotStore {
 public:
  void save(const Snapshot& snapshot) override {
    snapshot_ = snapshot;
    ++save_count_;
  }
  std::optional<Snapshot> load() override { return snapshot_; }

  /// Number of save() calls (tests assert when snapshots must be taken).
  std::size_t save_count() const { return save_count_; }

 private:
  std::optional<Snapshot> snapshot_;
  std::size_t save_count_ = 0;
};

/// Crash-safe file-backed store (tmp + fsync + rename + directory fsync).
class FileSnapshotStore final : public SnapshotStore {
 public:
  /// `path` is the snapshot file; writes go to `path.tmp` then rename.
  explicit FileSnapshotStore(std::string path);

  void save(const Snapshot& snapshot) override;
  std::optional<Snapshot> load() override;

 private:
  std::string path_;
};

}  // namespace escape::storage
