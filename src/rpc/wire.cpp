#include "rpc/wire.h"

#include <algorithm>

namespace escape::rpc {

std::vector<std::uint8_t> frame_payload(const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFrameBytes) throw DecodeError("frame payload too large");
  Encoder e;
  e.u16(kWireMagic);
  e.u8(kWireVersion);
  e.u8(0);
  e.u32(static_cast<std::uint32_t>(payload.size()));
  e.u32(crc32(payload));
  auto out = e.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameHeader parse_frame_header(const std::uint8_t* header) {
  Decoder d(header, kFrameHeaderBytes);
  const auto magic = d.u16();
  const auto version = d.u8();
  const auto flags = d.u8();
  FrameHeader out;
  out.length = d.u32();
  out.crc = d.u32();
  if (magic != kWireMagic) throw DecodeError("bad frame magic");
  if (version != kWireVersion) throw DecodeError("unsupported frame version");
  if (flags != 0) throw DecodeError("nonzero reserved flags");
  if (out.length > kMaxFrameBytes) throw DecodeError("frame length exceeds limit");
  return out;
}

void FrameReader::feed(const std::uint8_t* data, std::size_t size) {
  buf_.insert(buf_.end(), data, data + size);
}

std::optional<std::vector<std::uint8_t>> FrameReader::next() {
  if (buf_.size() < kFrameHeaderBytes) return std::nullopt;

  // Parse the header without consuming, so a partial frame stays buffered.
  std::uint8_t hdr[kFrameHeaderBytes];
  std::copy_n(buf_.begin(), kFrameHeaderBytes, hdr);
  const FrameHeader header = parse_frame_header(hdr);
  if (buf_.size() < kFrameHeaderBytes + header.length) return std::nullopt;

  std::vector<std::uint8_t> payload;
  payload.reserve(header.length);
  auto it = buf_.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes);
  payload.insert(payload.end(), it, it + static_cast<std::ptrdiff_t>(header.length));
  if (crc32(payload) != header.crc) throw DecodeError("frame CRC mismatch");

  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes + header.length));
  return payload;
}

}  // namespace escape::rpc
