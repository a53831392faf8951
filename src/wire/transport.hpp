#pragma once
/// \file transport.hpp
/// Message transports. LoopbackTransport is a thread-safe in-process pipe
/// used by the protocol tests and as a stand-in for sockets; TcpTransport
/// (tcp_transport.hpp) carries the same frames over real sockets for the
/// grid_rpc_demo example. Both speak the v6 handshake: the first frame in
/// each direction is a kSchemaHello, verified and swallowed here so daemons
/// only ever see application frames. A transport's one output primitive is
/// write(): already-framed bytes plus their frame count.

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "wire/framing.hpp"

namespace casched::wire {

/// A bidirectional, frame-oriented endpoint.
class Transport {
 public:
  using FrameFn = std::function<void(Frame)>;

  virtual ~Transport() = default;

  /// Frames one typed message and writes it immediately.
  void send(MessageType type, const Bytes& payload) { write(buildFrame(type, payload), 1); }

  /// Receives all frames queued so far, invoking `fn` per frame, in order.
  /// Returns the number of frames delivered (handshake frames are consumed
  /// here and not counted). Throws FrameDecodeError(kSchemaMismatch) when the
  /// peer's hello is wrong or application traffic precedes it.
  virtual std::size_t poll(const FrameFn& fn) = 0;

  virtual bool closed() const = 0;
  virtual void close() = 0;

  /// Frames one typed message onto this link's pending bytes, to leave with
  /// the next flushQueued() call. Daemons queue their per-poll-cycle outbound
  /// traffic and flush once per cycle, so a turn costs one write per link.
  /// Not thread-safe: queue/flush belong to the daemon's poll thread.
  void queue(MessageType type, Bytes payload);

  /// Writes every queued frame, in queue order, in one call; returns the
  /// number of frames written. Queued frames are dropped if the transport
  /// closed in the meantime (the link is dying; the daemons' retry paths own
  /// recovery).
  std::size_t flushQueued();

 protected:
  /// Writes `bytes`, which hold `frames` complete frames back to back. A
  /// closed transport drops them.
  virtual void write(const Bytes& bytes, std::size_t frames) = 0;

  /// Sends this side's schema hello; transports call it once at connect time.
  void sendSchemaHello() { send(MessageType::kSchemaHello, encode(SchemaHelloMsg{})); }

  /// Consumes handshake bookkeeping: returns true when `frame` was a valid
  /// kSchemaHello (now verified and swallowed). Throws
  /// FrameDecodeError(kSchemaMismatch) on a bad magic/hash, or when an
  /// application frame arrives before the peer introduced itself.
  bool consumeHandshake(const Frame& frame);

 private:
  Bytes pending_;
  std::size_t pendingFrames_ = 0;
  bool peerVerified_ = false;
};

/// One end of an in-process pipe. Frames written to A are readable from B
/// and vice versa. Thread-safe; byte-accurate (frames are actually encoded
/// and re-decoded so the codec path is exercised).
class LoopbackTransport final : public Transport {
 public:
  /// Creates a connected pair. `withHandshake` pre-loads both directions with
  /// a valid schema hello (the default, matching TCP behavior); tests pass
  /// false to probe the handshake enforcement itself.
  static std::pair<std::shared_ptr<LoopbackTransport>, std::shared_ptr<LoopbackTransport>>
  createPair(bool withHandshake = true);

  std::size_t poll(const FrameFn& fn) override;
  bool closed() const override;
  void close() override;

 protected:
  void write(const Bytes& bytes, std::size_t frames) override;

 private:
  struct Shared {
    std::mutex mutex;
    std::deque<Bytes> aToB;
    std::deque<Bytes> bToA;
    bool closed = false;
  };

  LoopbackTransport(std::shared_ptr<Shared> shared, bool isA)
      : shared_(std::move(shared)), isA_(isA) {}

  std::shared_ptr<Shared> shared_;
  bool isA_;
  FrameDecoder decoder_;
};

}  // namespace casched::wire
