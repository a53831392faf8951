#include "wire/transport.hpp"

#include "util/strings.hpp"

namespace casched::wire {

void Transport::queue(MessageType type, Bytes payload) {
  appendFrame(pending_, type, payload);
  ++pendingFrames_;
}

std::size_t Transport::flushQueued() {
  if (pendingFrames_ == 0) return 0;
  const std::size_t frames = closed() ? 0 : pendingFrames_;
  if (frames != 0) write(pending_, frames);
  pending_.clear();  // keeps the capacity for the next turn
  pendingFrames_ = 0;
  return frames;
}

bool Transport::consumeHandshake(const Frame& frame) {
  if (frame.type != MessageType::kSchemaHello) {
    if (!peerVerified_) {
      throw FrameDecodeError(FrameError::kSchemaMismatch,
                             "peer sent " + messageTypeName(frame.type) +
                                 " before the schema handshake");
    }
    return false;
  }
  SchemaHelloMsg hello;
  try {
    hello = decodeSchemaHello(frame.payload);
  } catch (const util::DecodeError& e) {
    throw FrameDecodeError(FrameError::kSchemaMismatch,
                           std::string("malformed schema hello: ") + e.what());
  }
  if (hello.magic != kWireMagic) {
    throw FrameDecodeError(
        FrameError::kSchemaMismatch,
        util::strformat("bad handshake magic %08x (want %08x)", hello.magic,
                        kWireMagic));
  }
  if (hello.schemaHash != kSchemaHash) {
    throw FrameDecodeError(
        FrameError::kSchemaMismatch,
        util::strformat("schema hash mismatch: peer %016llx, ours %016llx "
                        "(peer protocol v%u, ours v%u)",
                        static_cast<unsigned long long>(hello.schemaHash),
                        static_cast<unsigned long long>(kSchemaHash),
                        static_cast<unsigned>(hello.protocolVersion),
                        static_cast<unsigned>(kProtocolVersion)));
  }
  peerVerified_ = true;
  return true;
}

std::pair<std::shared_ptr<LoopbackTransport>, std::shared_ptr<LoopbackTransport>>
LoopbackTransport::createPair(bool withHandshake) {
  auto shared = std::make_shared<Shared>();
  auto a = std::shared_ptr<LoopbackTransport>(new LoopbackTransport(shared, true));
  auto b = std::shared_ptr<LoopbackTransport>(new LoopbackTransport(shared, false));
  if (withHandshake) {
    const Bytes hello = buildFrame(MessageType::kSchemaHello, encode(SchemaHelloMsg{}));
    shared->aToB.push_back(hello);
    shared->bToA.push_back(hello);
  }
  return {a, b};
}

void LoopbackTransport::write(const Bytes& bytes, std::size_t /*frames*/) {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  if (shared_->closed) return;
  (isA_ ? shared_->aToB : shared_->bToA).push_back(bytes);
}

std::size_t LoopbackTransport::poll(const FrameFn& fn) {
  std::deque<Bytes> incoming;
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    incoming.swap(isA_ ? shared_->bToA : shared_->aToB);
  }
  std::size_t delivered = 0;
  for (const Bytes& chunk : incoming) decoder_.feed(chunk);
  while (auto frame = decoder_.next()) {
    if (consumeHandshake(*frame)) continue;
    ++delivered;
    if (fn) fn(std::move(*frame));
  }
  return delivered;
}

bool LoopbackTransport::closed() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->closed;
}

void LoopbackTransport::close() {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  shared_->closed = true;
}

}  // namespace casched::wire
