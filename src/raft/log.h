// In-memory replicated log.
//
// Indexing is 1-based as in the Raft paper; index 0 is the empty-log
// sentinel with term 0. The container supports prefix compaction: compact_to
// drops a snapshotted prefix while retaining the (last included index, last
// included term) pair the Raft consistency check needs at the boundary, and
// reset_to rebases an entire log onto a received snapshot (InstallSnapshot on
// a follower whose log diverges from, or ends before, the snapshot point).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "rpc/messages.h"

namespace escape::raft {

/// Append-only (plus suffix truncation) sequence of log entries.
class Log {
 public:
  Log() = default;

  /// Index of the last entry; base() when the stored suffix is empty.
  LogIndex last_index() const { return base_ + static_cast<LogIndex>(entries_.size()); }

  /// Term of the last entry; the last included term after compaction, 0 for
  /// a genuinely empty log. (Elections after compaction depend on this: a
  /// fully compacted log is as up-to-date as the snapshot it absorbed.)
  Term last_term() const;

  /// First index still present (after compaction); base()+1. For an
  /// uncompacted log this is 1.
  LogIndex first_index() const { return base_ + 1; }

  /// Highest compacted index (the snapshot's last included index; 0 when
  /// nothing was ever compacted).
  LogIndex base() const { return base_; }

  /// Term of the entry at base() — the snapshot's last included term.
  Term base_term() const { return base_term_; }

  /// Term at `index`. Returns 0 for index 0, the last included term at
  /// base(); nullopt when out of range (compacted away or beyond the tail).
  std::optional<Term> term_at(LogIndex index) const;

  /// Entry at `index`, or nullptr when out of range (includes the compacted
  /// prefix: the boundary term survives compaction, the entries do not).
  const rpc::LogEntry* entry_at(LogIndex index) const;

  /// Appends one entry; its index must be last_index()+1.
  void append(rpc::LogEntry entry);

  /// Removes all entries with index >= `from`. No-op when from > last_index.
  void truncate_from(LogIndex from);

  /// Drops entries with index <= `upto` (snapshot compaction), retaining
  /// (upto, term_at(upto)) so the consistency check still matches at the
  /// boundary. `upto` must not exceed last_index().
  void compact_to(LogIndex upto);

  /// Discards everything and rebases onto a snapshot boundary: the log
  /// becomes empty with base()==index and base_term()==term. Used when an
  /// installed snapshot is ahead of (or conflicts with) the stored suffix.
  void reset_to(LogIndex index, Term term);

  /// Copies entries [from, from+max_count) clamped to the tail.
  std::vector<rpc::LogEntry> slice(LogIndex from, std::size_t max_count) const;

  /// True when a (index, term) pair matches this log (Raft consistency
  /// check). Index 0 always matches; the compaction boundary matches its
  /// retained term.
  bool matches(LogIndex index, Term term) const;

  /// True when a candidate's (last_log_index, last_log_term) is at least as
  /// up-to-date as this log (Raft §5.4.1 election restriction).
  bool candidate_is_up_to_date(LogIndex cand_last_index, Term cand_last_term) const;

  /// First index of term `t` within the stored suffix, if any; used to build
  /// conflict hints for fast follower catch-up.
  std::optional<LogIndex> first_index_of_term(Term t) const;

  /// Last index of term `t` within the stored suffix, if any; used by the
  /// leader to resolve follower conflict hints.
  std::optional<LogIndex> last_index_of_term(Term t) const;

  /// Number of entries currently stored (excludes compacted prefix).
  std::size_t size() const { return entries_.size(); }

  /// Approximate heap footprint of the stored suffix: command bytes plus a
  /// fixed per-entry header. O(1) — a running count — because the durable
  /// runtime checks it after every drain to decide when to compact.
  std::size_t approx_bytes() const { return bytes_; }

  /// approx_bytes()'s share of one entry: a 16-byte term + index header
  /// plus the command.
  static std::size_t entry_bytes(const rpc::LogEntry& e) { return 16 + e.command.size(); }

 private:
  LogIndex base_ = 0;   ///< highest compacted index; entries_[0] is base_+1
  Term base_term_ = 0;  ///< term of the entry at base_ (snapshot boundary)
  std::vector<rpc::LogEntry> entries_;
  std::size_t bytes_ = 0;  ///< sum of entry_bytes() over entries_
};

}  // namespace escape::raft
