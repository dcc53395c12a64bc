// Wire framing for stream transports.
//
// Frame layout (little-endian):
//   magic   u16  0xE5CA
//   version u8   1
//   flags   u8   reserved, must be 0
//   length  u32  payload byte count (bounded by kMaxFrameBytes)
//   crc     u32  CRC32 of payload
//   payload length bytes (an encode_message() buffer)
//
// parse_frame_header() is the one header check; FrameReader (an incremental
// parser: feed() arbitrary byte chunks, poll next() for complete frames) and
// net::EventLoop (which parses in place on its input rings) both call it.
// Corrupt frames throw DecodeError, which a connection treats as fatal (the
// stream is no longer trustworthy).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/serde.h"
#include "rpc/messages.h"

namespace escape::rpc {

inline constexpr std::uint16_t kWireMagic = 0xE5CA;
inline constexpr std::uint8_t kWireVersion = 1;
/// Upper bound on a single frame's payload; prevents a hostile peer from
/// forcing a huge allocation with a fake length prefix.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;
/// magic + version + flags + length + crc.
inline constexpr std::size_t kFrameHeaderBytes = 2 + 1 + 1 + 4 + 4;

/// What a frame header promises about the payload that follows it.
struct FrameHeader {
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
};

/// Parses the kFrameHeaderBytes at `header`. Throws DecodeError on a bad
/// magic, an unknown version, nonzero flags or a length above
/// kMaxFrameBytes; checking the payload against `crc` is the caller's.
FrameHeader parse_frame_header(const std::uint8_t* header);

/// Wraps an encoded message payload in a checksummed frame.
std::vector<std::uint8_t> frame_payload(const std::vector<std::uint8_t>& payload);

/// Convenience: encode + frame in one step.
inline std::vector<std::uint8_t> frame_message(const Message& m) {
  return frame_payload(encode_message(m));
}

/// Incremental frame parser over a byte stream.
class FrameReader {
 public:
  /// Appends raw bytes received from the stream.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Returns the next complete payload, or nullopt if more bytes are needed.
  /// Throws DecodeError on magic/version/length/CRC violations.
  std::optional<std::vector<std::uint8_t>> next();

  /// Bytes currently buffered (for tests and flow-control decisions).
  std::size_t buffered() const { return buf_.size(); }

 private:
  std::deque<std::uint8_t> buf_;
};

}  // namespace escape::rpc
