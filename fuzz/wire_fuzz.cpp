// libFuzzer entry point over wire::decode (build with -DCASCHED_FUZZ=ON,
// clang only). The input bytes are treated as a raw TCP stream: they run
// through the incremental FrameDecoder (length bound, version check, CRC32
// trailer, type check), and every frame that survives is
// handed to its per-type message decoder. The invariant under test is the
// same one the seeded corruption ctest locks: corrupt input either decodes
// or throws a typed util::Error - never a crash, hang, or unbounded
// allocation. Seed corpus: fuzz/corpus, regenerated by wire_corpus_gen.

#include <cstddef>
#include <cstdint>

#include "util/error.hpp"
#include "wire/framing.hpp"
#include "wire/messages.hpp"

namespace {

using namespace casched;
using namespace casched::wire;

void decodeMessage(const Frame& frame) {
  switch (frame.type) {
    case MessageType::kRegister: (void)decodeRegister(frame.payload); break;
    case MessageType::kRegisterAck: (void)decodeRegisterAck(frame.payload); break;
    case MessageType::kScheduleRequest: (void)decodeScheduleRequest(frame.payload); break;
    case MessageType::kScheduleReply: (void)decodeScheduleReply(frame.payload); break;
    case MessageType::kTaskSubmit: (void)decodeTaskSubmit(frame.payload); break;
    case MessageType::kTaskComplete: (void)decodeTaskComplete(frame.payload); break;
    case MessageType::kTaskFailed: (void)decodeTaskFailed(frame.payload); break;
    case MessageType::kLoadReport: (void)decodeLoadReport(frame.payload); break;
    case MessageType::kServerDown: (void)decodeServerDown(frame.payload); break;
    case MessageType::kServerUp: (void)decodeServerUp(frame.payload); break;
    case MessageType::kShutdown: (void)decodeShutdown(frame.payload); break;
    case MessageType::kHeartbeat: (void)decodeHeartbeat(frame.payload); break;
    case MessageType::kAgentHello: (void)decodeAgentHello(frame.payload); break;
    case MessageType::kAgentSync: (void)decodeAgentSync(frame.payload); break;
    case MessageType::kStatsRequest: (void)decodeStatsRequest(frame.payload); break;
    case MessageType::kStatsReply: (void)decodeStatsReply(frame.payload); break;
    case MessageType::kForwardRequest: (void)decodeForwardRequest(frame.payload); break;
    case MessageType::kForwardDeny: (void)decodeForwardDeny(frame.payload); break;
    case MessageType::kScheduleDeny: (void)decodeScheduleDeny(frame.payload); break;
    case MessageType::kStealRequest: (void)decodeStealRequest(frame.payload); break;
    case MessageType::kStealGrant: (void)decodeStealGrant(frame.payload); break;
    case MessageType::kResolverProbe: (void)decodeResolverProbe(frame.payload); break;
    case MessageType::kResolverInfo: (void)decodeResolverInfo(frame.payload); break;
    case MessageType::kSchemaHello: (void)decodeSchemaHello(frame.payload); break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  // Whole-stream feed: header/CRC/type validation plus message decodes.
  try {
    FrameDecoder decoder;
    decoder.feed(data, size);
    while (auto frame = decoder.next()) decodeMessage(*frame);
  } catch (const casched::util::Error&) {
    // Typed rejection is a pass; anything else the sanitizers catch.
  }
  // Chunked re-feed: the incremental path (partial headers, split CRC
  // trailers) takes different branches than one contiguous feed.
  try {
    FrameDecoder decoder;
    std::size_t pos = 0;
    while (pos < size) {
      const std::size_t chunk = 1 + (data[pos] % 7u);
      decoder.feed(data + pos, chunk < size - pos ? chunk : size - pos);
      pos += chunk;
      while (auto frame = decoder.next()) decodeMessage(*frame);
    }
  } catch (const casched::util::Error&) {
  }
  return 0;
}
