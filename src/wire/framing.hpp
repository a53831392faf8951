#pragma once
/// \file framing.hpp
/// Stream framing, protocol v6: every frame is [u32 totalLen][u16 version]
/// [u16 type][payload...][u32 crc32], little-endian, where totalLen counts
/// version+type+payload+crc and the CRC covers version+type+payload. One
/// frame carries one message. The decoder is incremental - feed arbitrary
/// chunks (as TCP delivers them) and pull complete frames out.

#include <cstdint>
#include <deque>
#include <optional>

#include "util/error.hpp"
#include "wire/buffer.hpp"
#include "wire/messages.hpp"

namespace casched::wire {

struct Frame {
  MessageType type;
  Bytes payload;
};

/// Every way a frame can be rejected, as a closed enum so the transport
/// metrics can count rejections per kind.
enum class FrameError {
  kBadLength,      ///< totalLen smaller than the fixed header+trailer
  kOversized,      ///< totalLen beyond kMaxFrameBytes (checked pre-allocation)
  kBadVersion,     ///< peer speaks another protocol version
  kBadType,        ///< message type this build does not know
  kBadChecksum,    ///< CRC32 trailer does not match the frame body
  kSchemaMismatch, ///< handshake magic/hash wrong, or traffic before handshake
};

/// Stable label for a FrameError ("checksum", "schema", ...); used as the
/// `kind` label on the decode-error counters.
const char* frameErrorName(FrameError kind);

/// Decode failure carrying its FrameError kind. Still a util::DecodeError, so
/// every existing catch site (daemon poll loops close the link) works
/// unchanged.
class FrameDecodeError : public util::DecodeError {
 public:
  FrameDecodeError(FrameError kind, const std::string& what)
      : util::DecodeError(what), kind_(kind) {}
  FrameError kind() const { return kind_; }

 private:
  FrameError kind_;
};

/// Builds one wire frame from a typed payload (header + payload + CRC32).
Bytes buildFrame(MessageType type, const Bytes& payload);

/// buildFrame, appended to `out` in place: queued frames are laid back to
/// back this way so a link writes a whole turn in one call.
void appendFrame(Bytes& out, MessageType type, const Bytes& payload);

/// Incremental frame decoder with a hard limit on frame size (malformed or
/// hostile length prefixes must not allocate unbounded memory). Checks run in
/// fixed order: length bounds, version, CRC trailer, type - so a v4 peer is
/// named by version, not drowned in checksum noise.
class FrameDecoder {
 public:
  static constexpr std::uint32_t kMaxFrameBytes = 64u * 1024u * 1024u;
  /// Fixed bytes after the length prefix: version + type + CRC trailer.
  static constexpr std::uint32_t kFrameOverhead = 8;

  /// Appends raw stream bytes.
  void feed(const std::uint8_t* data, std::size_t size);
  void feed(const Bytes& data) { feed(data.data(), data.size()); }

  /// Extracts the next complete frame, if any. Throws FrameDecodeError on a
  /// corrupt frame (bad length/version/type/CRC).
  std::optional<Frame> next();

  std::size_t bufferedBytes() const { return buffer_.size(); }

 private:
  std::deque<std::uint8_t> buffer_;
};

}  // namespace casched::wire
