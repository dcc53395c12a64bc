#include "storage/state_store.h"

#include <vector>

#include "common/logging.h"
#include "common/serde.h"
#include "storage/file_io.h"

namespace escape::storage {
namespace {

std::vector<std::uint8_t> encode_state(const PersistentState& s) {
  Encoder e;
  e.i64(s.current_term);
  e.u32(s.voted_for);
  e.i64(s.config.timer_period);
  e.i32(s.config.priority);
  e.i64(s.config.conf_clock);
  auto body = e.take();
  Encoder framed;
  framed.u32(crc32(body));
  framed.bytes(body);
  return framed.take();
}

std::optional<PersistentState> decode_state(const std::vector<std::uint8_t>& buf) {
  try {
    Decoder d(buf);
    const auto crc = d.u32();
    const auto body = d.bytes();
    d.expect_end();
    if (crc32(body) != crc) return std::nullopt;
    Decoder bd(body);
    PersistentState s;
    s.current_term = bd.i64();
    s.voted_for = bd.u32();
    s.config.timer_period = bd.i64();
    s.config.priority = bd.i32();
    s.config.conf_clock = bd.i64();
    bd.expect_end();
    return s;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace

FileStateStore::FileStateStore(std::string path) : path_(std::move(path)) {}

void FileStateStore::save(const PersistentState& state) {
  replace_file_durably(path_, encode_state(state));
}

std::optional<PersistentState> FileStateStore::load() {
  const auto buf = read_file(path_);
  if (!buf) return std::nullopt;
  auto state = decode_state(*buf);
  if (!state) {
    LOG_WARN("state file " << path_ << " is corrupt; treating as absent");
  }
  return state;
}

}  // namespace escape::storage
