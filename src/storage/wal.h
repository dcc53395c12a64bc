// Write-ahead log for replicated entries.
//
// The consensus core emits log mutations (append / truncate-suffix /
// compact-prefix) through the Wal interface before acting on them.
// Implementations:
//   * NullWal    — discards everything (pure in-memory simulation runs).
//   * MemoryWal  — replays into a vector; lets tests model a disk that
//                  survives a simulated crash.
//   * FileWal    — record-oriented segment files with CRC-protected records
//                  and torn-write recovery: a partially written final record
//                  is detected and discarded on open, everything before it is
//                  replayed.
//
// Compaction: compact_to(upto) records that every entry with index <= upto
// is now covered by a snapshot (in the paired SnapshotStore) and need not be
// replayed. Recovered entries therefore start at upto+1; the snapshot holds
// the state that those dropped entries produced.
//
// FileWal record layout: [kind u8][len u32][crc u32][payload len bytes].
//
// FileWal segments: a WAL that never compacted is the single file `path`.
// compact_to(upto) seals the open segment (fsync if it holds unsynced
// records), starts `path.<seq>` (seq = 1, 2, ..., eight digits) with the
// compact record, and unlinks the oldest segments while every index they
// mention is <= upto. The next sync() fsyncs the new segment and then the
// directory, so the creation and unlinks are durable before anything
// written after the compaction is acknowledged; the snapshot covering the
// unlinked segments was made durable before compact_to. Recovery replays
// the surviving segments in order as one record stream, so disk use and
// restart time follow the retained log, not the whole history.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rpc/messages.h"

namespace escape::storage {

/// Durable sink for log mutations.
class Wal {
 public:
  virtual ~Wal() = default;

  /// Records that `entry` was appended at its index.
  virtual void append(const rpc::LogEntry& entry) = 0;

  /// Records a contiguous run of appends as one group. Implementations may
  /// amortize the whole run into a single I/O (group commit); the default
  /// forwards to append() per entry. Durability is still only guaranteed
  /// after sync() — a crash mid-group may leave a torn tail, which recovery
  /// resolves to the longest valid prefix of the group.
  virtual void append_batch(const std::vector<rpc::LogEntry>& entries) {
    for (const auto& e : entries) append(e);
  }

  /// Records that all entries with index >= `from` were discarded.
  virtual void truncate_from(LogIndex from) = 0;

  /// Records that entries with index <= `upto` were absorbed into a snapshot
  /// and will never be replayed. Also rebases the WAL so a later append at
  /// upto+1 is contiguous. Default: no-op (volatile implementations).
  virtual void compact_to(LogIndex upto) { (void)upto; }

  /// Blocks until all prior records are durable (no-op for volatile impls).
  virtual void sync() = 0;

  /// Entry sequence a restart would replay (those past the last compaction
  /// record). Drivers feed this into raft::Bootstrap::log; volatile
  /// implementations that keep nothing return empty.
  virtual std::vector<rpc::LogEntry> recovered() const { return {}; }
};

/// Discards all records.
class NullWal final : public Wal {
 public:
  void append(const rpc::LogEntry&) override {}
  void truncate_from(LogIndex) override {}
  void sync() override {}
};

/// Keeps the materialized entry sequence in memory.
class MemoryWal final : public Wal {
 public:
  void append(const rpc::LogEntry& entry) override;
  void truncate_from(LogIndex from) override;
  void compact_to(LogIndex upto) override;
  void sync() override {}
  std::vector<rpc::LogEntry> recovered() const override { return entries_; }

  /// Entry sequence as it would be recovered after a crash; starts at
  /// base()+1 once compacted.
  const std::vector<rpc::LogEntry>& entries() const { return entries_; }

  /// Highest compacted index (0 when never compacted). The paired
  /// SnapshotStore covers everything up to and including it.
  LogIndex base() const { return base_; }

 private:
  LogIndex base_ = 0;
  std::vector<rpc::LogEntry> entries_;
};

/// File-backed WAL.
class FileWal final : public Wal {
 public:
  /// Opens (creating if needed) the WAL at `path` and replays its segments.
  /// Recovered entries are available via recovered_entries(). A trailing
  /// torn record is truncated away; a corrupt record ends the replay and
  /// every later segment is deleted.
  explicit FileWal(std::string path);
  ~FileWal() override;

  FileWal(const FileWal&) = delete;
  FileWal& operator=(const FileWal&) = delete;

  void append(const rpc::LogEntry& entry) override;
  void append_batch(const std::vector<rpc::LogEntry>& entries) override;
  void truncate_from(LogIndex from) override;
  void compact_to(LogIndex upto) override;
  void sync() override;
  std::vector<rpc::LogEntry> recovered() const override { return recovered_; }

  /// Entries reconstructed from the segments at open time (those past the
  /// last compaction record; see recovered_base()).
  const std::vector<rpc::LogEntry>& recovered_entries() const { return recovered_; }

  /// Index just below recovered_entries(): the highest compaction record
  /// (0 when never compacted), or higher when the replay met a forward gap —
  /// appends that resumed above an unlinked segment, or above a snapshot
  /// whose compact record a crash lost.
  LogIndex recovered_base() const {
    return recovered_.empty() ? base_ : recovered_.front().index - 1;
  }

 private:
  struct Segment {
    std::string path;
    LogIndex last_index = 0;  ///< highest index any record in it mentions
  };

  /// Replays one record into recovered_; false ends the replay (the record
  /// contradicts the stream: corrupt or written by a buggy writer).
  bool replay_record(std::uint8_t kind, const std::vector<std::uint8_t>& payload, Segment& segment);
  void write_record(std::uint8_t kind, const std::vector<std::uint8_t>& payload);
  void write_buffer(const std::vector<std::uint8_t>& buf);

  std::string path_;
  int fd_ = -1;                           ///< open on segments_.back()
  LogIndex base_ = 0;                     ///< highest compaction record replayed or written
  std::vector<rpc::LogEntry> recovered_;  ///< contiguous, all above base_
  std::vector<Segment> segments_;         ///< oldest first; never empty once open
  std::uint64_t next_seq_ = 1;            ///< suffix of the next rolled segment
  bool unsynced_ = false;                 ///< records written since the last sync()
  bool directory_changed_ = false;        ///< segments created/unlinked since then
};

}  // namespace escape::storage
