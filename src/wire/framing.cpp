#include "wire/framing.hpp"

#include "util/strings.hpp"
#include "wire/crc32.hpp"

namespace casched::wire {

const char* frameErrorName(FrameError kind) {
  switch (kind) {
    case FrameError::kBadLength: return "length";
    case FrameError::kOversized: return "oversized";
    case FrameError::kBadVersion: return "version";
    case FrameError::kBadType: return "type";
    case FrameError::kBadChecksum: return "checksum";
    case FrameError::kSchemaMismatch: return "schema";
  }
  return "unknown";
}

Bytes buildFrame(MessageType type, const Bytes& payload) {
  Bytes out;
  appendFrame(out, type, payload);
  return out;
}

void appendFrame(Bytes& out, MessageType type, const Bytes& payload) {
  const std::size_t start = out.size();
  Writer w(out);
  const std::uint32_t totalLen =
      static_cast<std::uint32_t>(payload.size()) + FrameDecoder::kFrameOverhead;
  CASCHED_CHECK(totalLen <= FrameDecoder::kMaxFrameBytes, "frame too large");
  w.u32(totalLen);
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
  w.u32(crc32(out.data() + start + 4, out.size() - start - 4));
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameDecoder::next() {
  if (buffer_.size() < 4) return std::nullopt;
  std::uint32_t totalLen = 0;
  for (int i = 0; i < 4; ++i) {
    totalLen |= static_cast<std::uint32_t>(buffer_[static_cast<std::size_t>(i)]) << (8 * i);
  }
  if (totalLen < kFrameOverhead) {
    throw FrameDecodeError(
        FrameError::kBadLength,
        util::strformat("frame length %u too small (need >= %u)", totalLen,
                        kFrameOverhead));
  }
  if (totalLen > kMaxFrameBytes) {
    throw FrameDecodeError(
        FrameError::kOversized,
        util::strformat("frame length %u exceeds the %u-byte limit", totalLen,
                        kMaxFrameBytes));
  }
  if (buffer_.size() < 4u + totalLen) return std::nullopt;

  // Drop the length prefix, then materialize the frame body contiguously.
  buffer_.erase(buffer_.begin(), buffer_.begin() + 4);
  Bytes body(buffer_.begin(), buffer_.begin() + totalLen);
  buffer_.erase(buffer_.begin(), buffer_.begin() + totalLen);

  Reader r(body);
  const std::uint16_t version = r.u16();
  if (version != kProtocolVersion) {
    throw FrameDecodeError(
        FrameError::kBadVersion,
        util::strformat("protocol version mismatch: got %u, want %u",
                        static_cast<unsigned>(version),
                        static_cast<unsigned>(kProtocolVersion)));
  }
  // CRC covers version+type+payload; the trailer is the last 4 bytes.
  const std::size_t bodyLen = body.size() - 4;
  std::uint32_t wireCrc = 0;
  for (int i = 0; i < 4; ++i) {
    wireCrc |= static_cast<std::uint32_t>(body[bodyLen + static_cast<std::size_t>(i)])
               << (8 * i);
  }
  const std::uint32_t computed = crc32(body.data(), bodyLen);
  if (wireCrc != computed) {
    throw FrameDecodeError(
        FrameError::kBadChecksum,
        util::strformat("frame checksum mismatch: trailer %08x, computed %08x",
                        wireCrc, computed));
  }
  const std::uint16_t rawType = r.u16();
  if (!isKnownMessageType(rawType)) {
    throw FrameDecodeError(FrameError::kBadType,
                           util::strformat("unknown message type %u",
                                           static_cast<unsigned>(rawType)));
  }
  Frame frame;
  frame.type = static_cast<MessageType>(rawType);
  frame.payload.assign(body.begin() + 4, body.end() - 4);
  return frame;
}

}  // namespace casched::wire
