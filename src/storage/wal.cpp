#include "storage/wal.h"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/serde.h"
#include "storage/file_io.h"

namespace escape::storage {
namespace {

constexpr std::uint8_t kRecordAppend = 1;
constexpr std::uint8_t kRecordTruncate = 2;
constexpr std::uint8_t kRecordCompact = 3;

std::vector<std::uint8_t> encode_entry_payload(const rpc::LogEntry& e) {
  Encoder enc;
  enc.i64(e.term);
  enc.i64(e.index);
  enc.u8(static_cast<std::uint8_t>(e.kind));
  enc.bytes(e.command);
  return enc.take();
}

rpc::LogEntry decode_entry_payload(const std::vector<std::uint8_t>& p) {
  Decoder d(p);
  rpc::LogEntry e;
  e.term = d.i64();
  e.index = d.i64();
  const auto kind = d.u8();
  if (kind > static_cast<std::uint8_t>(rpc::EntryKind::kConfChange)) {
    throw DecodeError("invalid WAL entry kind");
  }
  e.kind = static_cast<rpc::EntryKind>(kind);
  e.command = d.bytes();
  d.expect_end();
  return e;
}

constexpr std::size_t kHeaderBytes = 9;  // kind(1) + len(4) + crc(4)

/// Appends one framed record ([kind][len][crc][payload]) onto `buf`.
void frame_record(std::vector<std::uint8_t>& buf, std::uint8_t kind,
                  const std::vector<std::uint8_t>& payload) {
  Encoder e;
  e.u8(kind);
  e.u32(static_cast<std::uint32_t>(payload.size()));
  e.u32(crc32(payload));
  auto header = e.take();
  buf.insert(buf.end(), header.begin(), header.end());
  buf.insert(buf.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> index_payload(LogIndex index) {
  Encoder e;
  e.i64(index);
  return e.take();
}

LogIndex decode_index_payload(const std::vector<std::uint8_t>& p) {
  Decoder d(p);
  const auto index = d.i64();
  d.expect_end();
  return index;
}

std::string segment_path(const std::string& path, std::uint64_t seq) {
  std::string digits = std::to_string(seq);
  if (digits.size() < 8) digits.insert(0, 8 - digits.size(), '0');
  return path + "." + digits;
}

/// Rolled segments of the WAL at `path` on disk, as (seq, path), by seq.
std::vector<std::pair<std::uint64_t, std::string>> rolled_segments(const std::string& path) {
  const std::filesystem::path wal(path);
  const std::string prefix = wal.filename().string() + ".";
  const auto dir = wal.has_parent_path() ? wal.parent_path() : std::filesystem::path(".");
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = item.path().filename().string();
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string suffix = name.substr(prefix.size());
    if (!std::all_of(suffix.begin(), suffix.end(), [](char c) { return c >= '0' && c <= '9'; })) {
      continue;
    }
    found.emplace_back(std::stoull(suffix), item.path().string());
  }
  if (ec && ec != std::errc::no_such_file_or_directory) {
    throw std::runtime_error("listing " + dir.string() + ": " + ec.message());
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

void MemoryWal::append(const rpc::LogEntry& entry) {
  if (entry.index != base_ + static_cast<LogIndex>(entries_.size()) + 1) {
    throw std::logic_error("MemoryWal::append: non-contiguous index");
  }
  entries_.push_back(entry);
}

void MemoryWal::truncate_from(LogIndex from) {
  if (from <= base_) {
    throw std::logic_error("MemoryWal::truncate_from: index already compacted");
  }
  if (from - base_ <= static_cast<LogIndex>(entries_.size())) {
    entries_.resize(static_cast<std::size_t>(from - base_ - 1));
  }
}

void MemoryWal::compact_to(LogIndex upto) {
  if (upto <= base_) return;
  const LogIndex tail = base_ + static_cast<LogIndex>(entries_.size());
  if (upto >= tail) {
    entries_.clear();
  } else {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(upto - base_));
  }
  base_ = upto;
}

FileWal::FileWal(std::string path) : path_(std::move(path)) {
  std::vector<Segment> on_disk;
  if (std::filesystem::exists(path_)) on_disk.push_back({path_, 0});
  for (const auto& [seq, file] : rolled_segments(path_)) {
    on_disk.push_back({file, 0});
    next_seq_ = seq + 1;
  }

  // Replay pass: the segments in order form one record stream. Stop at the
  // first torn/corrupt record; the bytes after it, and every later segment,
  // are dropped so the next open replays exactly what this one did.
  bool stopped = false;
  for (Segment& segment : on_disk) {
    if (stopped) {
      LOG_WARN("WAL " << segment.path << ": deleting segment after a corrupt record");
      if (::unlink(segment.path.c_str()) != 0 && errno != ENOENT) {
        throw_errno("unlink", segment.path);
      }
      continue;
    }
    const auto data = read_file(segment.path).value_or(std::vector<std::uint8_t>{});
    std::size_t pos = 0;
    while (pos + kHeaderBytes <= data.size()) {
      const std::uint8_t kind = data[pos];
      Decoder hd(data.data() + pos + 1, 8);
      const auto len = hd.u32();
      const auto crc = hd.u32();
      if (pos + kHeaderBytes + len > data.size()) break;  // torn tail
      const auto body = data.begin() + static_cast<std::ptrdiff_t>(pos + kHeaderBytes);
      std::vector<std::uint8_t> payload(body, body + len);
      if (crc32(payload) != crc) break;  // corrupt tail
      bool ok;
      try {
        ok = replay_record(kind, payload, segment);
      } catch (const DecodeError&) {
        ok = false;  // a CRC-valid record that does not decode
      }
      if (!ok) break;
      pos += kHeaderBytes + len;
    }
    if (pos < data.size()) {
      LOG_WARN("WAL " << segment.path << ": dropping " << (data.size() - pos)
                      << " trailing bytes (torn or corrupt record)");
      if (::truncate(segment.path.c_str(), static_cast<off_t>(pos)) != 0) {
        throw_errno("truncate", segment.path);
      }
      stopped = true;
    }
    segments_.push_back(std::move(segment));
  }
  if (stopped) fsync_parent_dir(path_);

  const bool fresh = segments_.empty();
  if (fresh) segments_.push_back({path_, 0});
  fd_ = ::open(segments_.back().path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw_errno("open", segments_.back().path);
  if (fresh) fsync_parent_dir(path_);
}

FileWal::~FileWal() {
  if (fd_ >= 0) ::close(fd_);
}

bool FileWal::replay_record(std::uint8_t kind, const std::vector<std::uint8_t>& payload,
                            Segment& segment) {
  // Drops every recovered entry with index >= `from`.
  const auto drop_from = [this](LogIndex from) {
    if (recovered_.empty() || from > recovered_.back().index) return;
    const LogIndex first = recovered_.front().index;
    recovered_.resize(from <= first ? 0 : static_cast<std::size_t>(from - first));
  };
  // Drops every recovered entry with index <= `upto`.
  const auto drop_through = [this](LogIndex upto) {
    if (recovered_.empty() || upto < recovered_.front().index) return;
    const LogIndex kept = std::max<LogIndex>(recovered_.back().index - upto, 0);
    recovered_.erase(recovered_.begin(), recovered_.end() - static_cast<std::ptrdiff_t>(kept));
  };
  if (kind == kRecordAppend) {
    auto e = decode_entry_payload(payload);
    if (e.index <= base_) return false;  // append below the compaction point
    // An append at or below the tail acts as truncate+append, mirroring how
    // the consensus core issues records after a divergence.
    drop_from(e.index);
    if (!recovered_.empty() && e.index != recovered_.back().index + 1) {
      // Forward gap: the entries in between are covered by a snapshot — an
      // unlinked segment held them, or a crash lost the compact record of
      // an installed snapshot. The core checks a snapshot reaches the gap
      // at boot.
      recovered_.clear();
    }
    segment.last_index = std::max(segment.last_index, e.index);
    recovered_.push_back(std::move(e));
    return true;
  }
  if (kind == kRecordTruncate) {
    const auto from = decode_index_payload(payload);
    if (from <= base_) return false;  // truncating the compacted prefix
    drop_from(from);
    return true;
  }
  if (kind == kRecordCompact) {
    const auto upto = decode_index_payload(payload);
    if (upto > base_) {
      drop_through(upto);
      base_ = upto;
    }
    segment.last_index = std::max(segment.last_index, upto);
    return true;
  }
  return false;  // unknown record kind: stop replay conservatively
}

void FileWal::write_buffer(const std::vector<std::uint8_t>& buf) {
  write_all(fd_, buf, segments_.back().path);
  unsynced_ = true;
}

void FileWal::write_record(std::uint8_t kind, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> buf;
  frame_record(buf, kind, payload);
  write_buffer(buf);
}

void FileWal::append(const rpc::LogEntry& entry) {
  write_record(kRecordAppend, encode_entry_payload(entry));
  segments_.back().last_index = std::max(segments_.back().last_index, entry.index);
}

void FileWal::append_batch(const std::vector<rpc::LogEntry>& entries) {
  // Group commit: frame the whole run into one buffer and issue a single
  // write. Recovery handles a torn tail inside the group the same as a torn
  // single record — the longest valid record prefix survives.
  std::vector<std::uint8_t> buf;
  for (const auto& e : entries) frame_record(buf, kRecordAppend, encode_entry_payload(e));
  write_buffer(buf);
  for (const auto& e : entries) {
    segments_.back().last_index = std::max(segments_.back().last_index, e.index);
  }
}

void FileWal::truncate_from(LogIndex from) { write_record(kRecordTruncate, index_payload(from)); }

void FileWal::compact_to(LogIndex upto) {
  if (upto <= base_) return;
  // Seal the open segment: the next sync() covers only the new one.
  if (unsynced_ && ::fsync(fd_) != 0) throw_errno("fsync", segments_.back().path);
  // Start the next segment with the compact record. Its directory entry
  // becomes durable with the next sync(), before anything written to it is
  // acknowledged.
  std::vector<std::uint8_t> buf;
  frame_record(buf, kRecordCompact, index_payload(upto));
  const std::string next = segment_path(path_, next_seq_);
  const int fd = ::open(next.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) throw_errno("open", next);
  ++next_seq_;
  ::close(fd_);
  fd_ = fd;
  segments_.push_back({next, upto});
  base_ = upto;
  directory_changed_ = true;
  write_buffer(buf);
  // Unlink the oldest segments while everything they mention is covered.
  // They need no ordering against the new segment: the snapshot through
  // `upto` is durable already, and any subset of them that survives a crash
  // replays to the same log above it.
  std::size_t dropped = 0;
  while (dropped + 1 < segments_.size() && segments_[dropped].last_index <= upto) {
    if (::unlink(segments_[dropped].path.c_str()) != 0) {
      throw_errno("unlink", segments_[dropped].path);
    }
    ++dropped;
  }
  segments_.erase(segments_.begin(), segments_.begin() + static_cast<std::ptrdiff_t>(dropped));
}

void FileWal::sync() {
  if (::fsync(fd_) != 0) throw_errno("fsync", segments_.back().path);
  unsynced_ = false;
  if (directory_changed_) {
    fsync_parent_dir(path_);
    directory_changed_ = false;
  }
}

}  // namespace escape::storage
