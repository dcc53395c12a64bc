#include "storage/snapshot_store.h"

#include "common/logging.h"
#include "common/serde.h"
#include "storage/file_io.h"

namespace escape::storage {
namespace {

/// Bump when the body layout changes; load refuses unknown versions instead
/// of misparsing old files. v2 added the membership block after the
/// configuration; v1 files still decode (membership stays empty and the
/// node falls back to its bootstrap member list).
constexpr std::uint8_t kSnapshotVersionV1 = 1;
constexpr std::uint8_t kSnapshotVersion = 2;

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snapshot) {
  Encoder e;
  e.u8(kSnapshotVersion);
  e.i64(snapshot.last_included_index);
  e.i64(snapshot.last_included_term);
  e.i64(snapshot.config.timer_period);
  e.i32(snapshot.config.priority);
  e.i64(snapshot.config.conf_clock);
  rpc::encode_membership(e, snapshot.membership);
  e.bytes(snapshot.state);
  auto body = e.take();
  Encoder framed;
  framed.u32(crc32(body));
  framed.bytes(body);
  return framed.take();
}

std::optional<Snapshot> decode_snapshot(const std::vector<std::uint8_t>& buf) {
  try {
    Decoder d(buf);
    const auto crc = d.u32();
    const auto body = d.bytes();
    d.expect_end();
    if (crc32(body) != crc) return std::nullopt;
    Decoder bd(body);
    const auto version = bd.u8();
    if (version != kSnapshotVersion && version != kSnapshotVersionV1) return std::nullopt;
    Snapshot s;
    s.last_included_index = bd.i64();
    s.last_included_term = bd.i64();
    s.config.timer_period = bd.i64();
    s.config.priority = bd.i32();
    s.config.conf_clock = bd.i64();
    if (version >= kSnapshotVersion) s.membership = rpc::decode_membership(bd);
    s.state = bd.bytes();
    bd.expect_end();
    return s;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

FileSnapshotStore::FileSnapshotStore(std::string path) : path_(std::move(path)) {}

void FileSnapshotStore::save(const Snapshot& snapshot) {
  replace_file_durably(path_, encode_snapshot(snapshot));
}

std::optional<Snapshot> FileSnapshotStore::load() {
  const auto buf = read_file(path_);
  if (!buf) return std::nullopt;
  auto snapshot = decode_snapshot(*buf);
  if (!snapshot) {
    LOG_WARN("snapshot file " << path_ << " is corrupt; treating as absent");
  }
  return snapshot;
}

}  // namespace escape::storage
