// Tests of the wire protocol: primitive round-trips, every message type,
// incremental framing (TCP-like chunking), decode robustness, and the
// loopback + TCP transports.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <thread>

#include "obs/metrics.hpp"
#include "simcore/rng.hpp"
#include "util/error.hpp"
#include "wire/framing.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"
#include "wire/transport.hpp"

namespace casched::wire {
namespace {

TEST(Buffer, PrimitiveRoundTrip) {
  Bytes out;
  Writer w(out);
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  w.bytes({1, 2, 3});
  Reader r(out);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.atEnd());
}

TEST(Buffer, TruncatedReadThrows) {
  Bytes out;
  Writer w(out);
  w.u32(7);
  Reader r(out.data(), 2);
  EXPECT_THROW(r.u32(), util::DecodeError);
}

TEST(Buffer, TruncatedStringThrows) {
  Bytes out;
  Writer w(out);
  w.u32(100);  // claims 100 bytes follow
  Reader r(out);
  EXPECT_THROW(r.str(), util::DecodeError);
}

TEST(Buffer, SpecialDoubles) {
  Bytes out;
  Writer w(out);
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  Reader r(out);
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_DOUBLE_EQ(r.f64(), 0.0);
}

TEST(Messages, RegisterRoundTrip) {
  RegisterMsg m;
  m.serverName = "artimon";
  m.bwInMBps = 7.4;
  m.bwOutMBps = 12.1;
  m.latencyIn = 0.05;
  m.latencyOut = 0.04;
  m.ramMB = 512;
  m.swapMB = 1024;
  m.speedIndex = 1.37;
  m.problems = {"matmul-1200", "matmul-1500", "*"};
  const RegisterMsg back = decodeRegister(encode(m));
  EXPECT_EQ(back.serverName, m.serverName);
  EXPECT_DOUBLE_EQ(back.bwInMBps, m.bwInMBps);
  EXPECT_DOUBLE_EQ(back.speedIndex, 1.37);
  EXPECT_EQ(back.problems, m.problems);
}

TEST(Messages, HeartbeatRoundTrip) {
  HeartbeatMsg m{"pulney", 321.5};
  const auto back = decodeHeartbeat(encode(m));
  EXPECT_EQ(back.serverName, "pulney");
  EXPECT_DOUBLE_EQ(back.sampleTime, 321.5);
}

TEST(Messages, RegisterAckRoundTrip) {
  RegisterAckMsg m{"artimon", true, 4217.25};
  const auto back = decodeRegisterAck(encode(m));
  EXPECT_EQ(back.serverName, "artimon");
  EXPECT_TRUE(back.accepted);
  EXPECT_DOUBLE_EQ(back.agentTime, 4217.25);
}

TEST(Messages, ScheduleRequestRoundTrip) {
  ScheduleRequestMsg m{42, "matmul-1800", 49.43, 24.72, 74.15, 60.75};
  const auto back = decodeScheduleRequest(encode(m));
  EXPECT_EQ(back.taskId, 42u);
  EXPECT_EQ(back.problem, "matmul-1800");
  EXPECT_DOUBLE_EQ(back.memMB, 74.15);
}

TEST(Messages, ScheduleReplyRoundTrip) {
  ScheduleReplyMsg m{7, {"pulney", "artimon", "cabestan"}};
  const auto back = decodeScheduleReply(encode(m));
  EXPECT_EQ(back.taskId, 7u);
  EXPECT_EQ(back.servers, m.servers);
}

TEST(Messages, TaskSubmitRoundTrip) {
  TaskSubmitMsg m{9, "waste-cpu-400", 0.2, 33.2, 0.05, 0.0};
  const auto back = decodeTaskSubmit(encode(m));
  EXPECT_EQ(back.problem, "waste-cpu-400");
  EXPECT_DOUBLE_EQ(back.cpuSeconds, 33.2);
}

TEST(Messages, TaskCompleteRoundTrip) {
  TaskCompleteMsg m{9, "artimon", 123.5, 33.3};
  const auto back = decodeTaskComplete(encode(m));
  EXPECT_DOUBLE_EQ(back.completionTime, 123.5);
  EXPECT_DOUBLE_EQ(back.unloadedDuration, 33.3);
}

TEST(Messages, TaskFailedRoundTrip) {
  TaskFailedMsg m{9, "pulney", "out of memory"};
  const auto back = decodeTaskFailed(encode(m));
  EXPECT_EQ(back.reason, "out of memory");
}

TEST(Messages, LoadReportRoundTrip) {
  LoadReportMsg m{"pulney", 12.3, 456.7, 780.0};
  const auto back = decodeLoadReport(encode(m));
  EXPECT_DOUBLE_EQ(back.loadAverage, 12.3);
  EXPECT_DOUBLE_EQ(back.residentMB, 780.0);
}

TEST(Messages, ServerUpDownShutdownRoundTrip) {
  EXPECT_EQ(decodeServerDown(encode(ServerDownMsg{"x"})).serverName, "x");
  EXPECT_EQ(decodeServerUp(encode(ServerUpMsg{"y"})).serverName, "y");
  EXPECT_EQ(decodeShutdown(encode(ShutdownMsg{"done"})).reason, "done");
}

TEST(Messages, TypeNamesAreUnique) {
  std::set<std::string> names;
  const int last = static_cast<int>(MessageType::kSchemaHello);
  for (int t = 1; t <= last; ++t) {
    EXPECT_TRUE(isKnownMessageType(static_cast<std::uint16_t>(t)));
    names.insert(messageTypeName(static_cast<MessageType>(t)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(last));
  EXPECT_EQ(messageTypeName(static_cast<MessageType>(999)), "unknown");
  EXPECT_FALSE(isKnownMessageType(0));
  EXPECT_FALSE(isKnownMessageType(static_cast<std::uint16_t>(last + 1)));
  EXPECT_FALSE(isKnownMessageType(999));
}

TEST(Messages, StatsRoundTrip) {
  StatsRequestMsg req;
  req.format = "json";
  EXPECT_EQ(decodeStatsRequest(encode(req)).format, "json");

  StatsReplyMsg reply;
  reply.agentName = "agent-0";
  reply.sampleTime = 77.25;
  reply.format = "prometheus";
  reply.body = "casched_tasks_completed_total 42\n";
  const StatsReplyMsg back = decodeStatsReply(encode(reply));
  EXPECT_EQ(back.agentName, "agent-0");
  EXPECT_DOUBLE_EQ(back.sampleTime, 77.25);
  EXPECT_EQ(back.format, "prometheus");
  EXPECT_EQ(back.body, reply.body);
}

TEST(Messages, AgentHelloRoundTrip) {
  AgentHelloMsg m;
  m.agentName = "agent-1";
  m.mode = "partitioned";
  m.sampleTime = 512.75;
  m.ownedServers = {"grid-1", "grid-3"};
  const AgentHelloMsg back = decodeAgentHello(encode(m));
  EXPECT_EQ(back.agentName, "agent-1");
  EXPECT_EQ(back.mode, "partitioned");
  EXPECT_DOUBLE_EQ(back.sampleTime, 512.75);
  EXPECT_EQ(back.ownedServers, m.ownedServers);
}

TEST(Messages, AgentSyncRoundTrip) {
  AgentSyncMsg m;
  m.agentName = "agent-0";
  m.sampleTime = 60.5;
  m.loads.push_back(LoadDigest{"grid-0", 2.5, 58.0});
  m.loads.push_back(LoadDigest{"grid-2", 0.0, 59.0});
  m.snapshotSeq = 12;
  m.chunkIndex = 1;
  m.chunkCount = 3;
  m.snapshotChunk = {0xDE, 0xAD, 0xBE, 0xEF};
  const AgentSyncMsg back = decodeAgentSync(encode(m));
  EXPECT_EQ(back.agentName, "agent-0");
  ASSERT_EQ(back.loads.size(), 2u);
  EXPECT_EQ(back.loads[0].serverName, "grid-0");
  EXPECT_DOUBLE_EQ(back.loads[0].loadAverage, 2.5);
  EXPECT_DOUBLE_EQ(back.loads[1].sampleTime, 59.0);
  EXPECT_EQ(back.snapshotSeq, 12u);
  EXPECT_EQ(back.chunkIndex, 1u);
  EXPECT_EQ(back.chunkCount, 3u);
  EXPECT_EQ(back.snapshotChunk, (Bytes{0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(Messages, HostileElementCountsFailAsDecodeErrorNotBadAlloc) {
  // A tiny payload claiming 2^32-1 list elements must hit DecodeError when
  // the bytes run dry - never attempt a giant reserve() whose bad_alloc
  // would sail past the util::Error handlers and kill a daemon.
  Bytes sync;
  {
    Writer w(sync);
    w.str("agent-evil");
    w.f64(0.0);
    w.u32(0xFFFFFFFFu);  // loads "count"
  }
  EXPECT_THROW(decodeAgentSync(sync), util::DecodeError);

  Bytes reg;
  {
    Writer w(reg);
    w.str("evil");
    for (int i = 0; i < 7; ++i) w.f64(1.0);
    w.u32(0xFFFFFFFFu);  // problems "count"
  }
  EXPECT_THROW(decodeRegister(reg), util::DecodeError);
}

TEST(Framing, SingleFrameRoundTrip) {
  const Bytes payload = encode(ServerDownMsg{"pulney"});
  const Bytes frame = buildFrame(MessageType::kServerDown, payload);
  FrameDecoder dec;
  dec.feed(frame);
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, MessageType::kServerDown);
  EXPECT_EQ(f->payload, payload);
  EXPECT_FALSE(dec.next().has_value());
}

TEST(Framing, ByteAtATimeFeeding) {
  const Bytes frame = buildFrame(MessageType::kShutdown, encode(ShutdownMsg{"bye"}));
  FrameDecoder dec;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_FALSE(dec.next().has_value() && i + 1 < frame.size());
    dec.feed(&frame[i], 1);
  }
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(decodeShutdown(f->payload).reason, "bye");
}

TEST(Framing, MultipleFramesInOneChunk) {
  const auto serverName = [](int i) {
    return std::string("server-") + static_cast<char>('a' + i);
  };
  Bytes stream;
  for (int i = 0; i < 5; ++i) {
    const Bytes frame = buildFrame(MessageType::kLoadReport,
                                   encode(LoadReportMsg{serverName(i), 1.0 * i, 0, 0}));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameDecoder dec;
  dec.feed(stream);
  for (int i = 0; i < 5; ++i) {
    const auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(decodeLoadReport(f->payload).serverName, serverName(i));
  }
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.bufferedBytes(), 0u);
}

TEST(Framing, RejectsWrongVersionNamingTheValue) {
  Bytes frame = buildFrame(MessageType::kShutdown, {});
  frame[4] = 0xFF;  // corrupt version (first byte after length prefix)
  FrameDecoder dec;
  dec.feed(frame);
  try {
    dec.next();
    FAIL() << "expected DecodeError";
  } catch (const util::DecodeError& e) {
    // The error must carry the offending and the expected version.
    EXPECT_NE(std::string(e.what()).find("255"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find(std::to_string(kProtocolVersion)),
              std::string::npos)
        << e.what();
  }
}

TEST(Framing, RejectsV2PeersNamingBothVersions) {
  // A v2 (or v5) build frames the same payloads under its own version; this
  // decoder must reject the frame with an error naming the offending and
  // expected version instead of misreading newer fields (or drowning the
  // mismatch in checksum noise - the version check runs before the CRC check
  // on purpose).
  const std::string want = "want " + std::to_string(kProtocolVersion);
  for (const int oldVersion : {2, 5}) {
    Bytes frame = buildFrame(MessageType::kHeartbeat, encode(HeartbeatMsg{"old", 1.0}));
    frame[4] = static_cast<std::uint8_t>(oldVersion);  // little-endian version word
    frame[5] = 0;
    FrameDecoder dec;
    dec.feed(frame);
    try {
      dec.next();
      FAIL() << "expected DecodeError for v" << oldVersion;
    } catch (const util::DecodeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("got " + std::to_string(oldVersion)), std::string::npos) << what;
      EXPECT_NE(what.find(want), std::string::npos) << what;
    }
  }
}

TEST(Framing, RejectsUnknownMessageTypeNamingTheValue) {
  // 25 was v5's multi-message envelope; v6 frames carry one message each.
  for (const int rawType : {77, 25}) {
    Bytes frame = buildFrame(static_cast<MessageType>(rawType), {});
    FrameDecoder dec;
    dec.feed(frame);
    try {
      dec.next();
      FAIL() << "expected DecodeError for type " << rawType;
    } catch (const FrameDecodeError& e) {
      EXPECT_EQ(e.kind(), FrameError::kBadType);
      EXPECT_NE(std::string(e.what()).find(std::to_string(rawType)), std::string::npos)
          << e.what();
    }
  }
}

TEST(Framing, RejectsOversizedLengthBeforeAllocationNamingTheKind) {
  // A hostile length prefix must be rejected from the 4 header bytes alone -
  // before the decoder materializes (allocates) any frame body.
  Bytes bogus;
  Writer w(bogus);
  w.u32(FrameDecoder::kMaxFrameBytes + 1);
  FrameDecoder dec;
  dec.feed(bogus);
  try {
    dec.next();
    FAIL() << "expected FrameDecodeError";
  } catch (const FrameDecodeError& e) {
    EXPECT_EQ(e.kind(), FrameError::kOversized);
    EXPECT_NE(std::string(e.what()).find("limit"), std::string::npos) << e.what();
  }
}

TEST(Framing, RejectsTooSmallLength) {
  Bytes bogus;
  Writer w(bogus);
  w.u32(2);
  FrameDecoder dec;
  dec.feed(bogus);
  try {
    dec.next();
    FAIL() << "expected FrameDecodeError";
  } catch (const FrameDecodeError& e) {
    EXPECT_EQ(e.kind(), FrameError::kBadLength);
  }
}

TEST(Framing, CrcTrailerRejectsCorruptedPayload) {
  // Flip one payload byte: the CRC check must name the mismatch before any
  // message decode sees the corrupt bytes.
  Bytes frame = buildFrame(MessageType::kLoadReport,
                           encode(LoadReportMsg{"grid-3", 2.5, 60.0, 512.0}));
  frame[12] ^= 0x01;
  FrameDecoder dec;
  dec.feed(frame);
  try {
    dec.next();
    FAIL() << "expected FrameDecodeError";
  } catch (const FrameDecodeError& e) {
    EXPECT_EQ(e.kind(), FrameError::kBadChecksum);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST(Framing, CrcTrailerRejectsCorruptedTrailer) {
  Bytes frame = buildFrame(MessageType::kHeartbeat, encode(HeartbeatMsg{"s", 1.0}));
  frame[frame.size() - 1] ^= 0x80;
  FrameDecoder dec;
  dec.feed(frame);
  try {
    dec.next();
    FAIL() << "expected FrameDecodeError";
  } catch (const FrameDecodeError& e) {
    EXPECT_EQ(e.kind(), FrameError::kBadChecksum);
  }
}

// Property: random message payloads survive framing across random chunk
// boundaries.
class FramingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FramingProperty, RandomChunkingPreservesFrames) {
  simcore::RandomStream rng(GetParam());
  std::vector<Bytes> payloads;
  Bytes stream;
  for (int i = 0; i < 20; ++i) {
    Bytes payload;
    const auto len = static_cast<std::size_t>(rng.uniformInt(0, 200));
    payload.reserve(len);
    for (std::size_t b = 0; b < len; ++b) {
      payload.push_back(static_cast<std::uint8_t>(rng.uniformInt(0, 255)));
    }
    const Bytes frame = buildFrame(MessageType::kTaskSubmit, payload);
    stream.insert(stream.end(), frame.begin(), frame.end());
    payloads.push_back(std::move(payload));
  }
  FrameDecoder dec;
  std::vector<Bytes> received;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const auto chunk = std::min<std::size_t>(
        static_cast<std::size_t>(rng.uniformInt(1, 64)), stream.size() - pos);
    dec.feed(stream.data() + pos, chunk);
    pos += chunk;
    while (auto f = dec.next()) received.push_back(f->payload);
  }
  ASSERT_EQ(received.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) EXPECT_EQ(received[i], payloads[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FramingProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Loopback, BidirectionalDelivery) {
  auto [a, b] = LoopbackTransport::createPair();
  a->send(MessageType::kServerUp, encode(ServerUpMsg{"artimon"}));
  b->send(MessageType::kServerDown, encode(ServerDownMsg{"pulney"}));
  int got = 0;
  b->poll([&](Frame f) {
    EXPECT_EQ(f.type, MessageType::kServerUp);
    ++got;
  });
  a->poll([&](Frame f) {
    EXPECT_EQ(f.type, MessageType::kServerDown);
    ++got;
  });
  EXPECT_EQ(got, 2);
}

TEST(Loopback, OrderPreserved) {
  auto [a, b] = LoopbackTransport::createPair();
  for (int i = 0; i < 10; ++i) {
    a->send(MessageType::kLoadReport, encode(LoadReportMsg{"s", 1.0 * i, 0, 0}));
  }
  int next = 0;
  b->poll([&](Frame f) {
    EXPECT_DOUBLE_EQ(decodeLoadReport(f.payload).loadAverage, 1.0 * next);
    ++next;
  });
  EXPECT_EQ(next, 10);
}

TEST(Loopback, CloseStopsDelivery) {
  auto [a, b] = LoopbackTransport::createPair();
  a->close();
  EXPECT_TRUE(b->closed());
  a->send(MessageType::kShutdown, {});
  EXPECT_EQ(b->poll(nullptr), 0u);
}

TEST(Handshake, SchemaHelloIsSwallowedBeforeApplicationTraffic) {
  // The pair exchanges valid hellos at creation; polling delivers zero
  // application frames until real traffic arrives.
  auto [a, b] = LoopbackTransport::createPair();
  EXPECT_EQ(b->poll(nullptr), 0u);
  a->send(MessageType::kServerUp, encode(ServerUpMsg{"artimon"}));
  int got = 0;
  b->poll([&](Frame f) {
    EXPECT_EQ(f.type, MessageType::kServerUp);
    ++got;
  });
  EXPECT_EQ(got, 1);
}

TEST(Handshake, SchemaHashMismatchIsRejectedWithANamedError) {
  auto [a, b] = LoopbackTransport::createPair(/*withHandshake=*/false);
  SchemaHelloMsg hello;
  hello.schemaHash = 0xDEADBEEFDEADBEEFull;  // a build with different schemas
  a->send(MessageType::kSchemaHello, encode(hello));
  try {
    b->poll(nullptr);
    FAIL() << "expected FrameDecodeError";
  } catch (const FrameDecodeError& e) {
    EXPECT_EQ(e.kind(), FrameError::kSchemaMismatch);
    EXPECT_NE(std::string(e.what()).find("schema hash mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(Handshake, BadMagicIsRejectedWithANamedError) {
  auto [a, b] = LoopbackTransport::createPair(/*withHandshake=*/false);
  SchemaHelloMsg hello;
  hello.magic = 0x0BADF00D;
  a->send(MessageType::kSchemaHello, encode(hello));
  try {
    b->poll(nullptr);
    FAIL() << "expected FrameDecodeError";
  } catch (const FrameDecodeError& e) {
    EXPECT_EQ(e.kind(), FrameError::kSchemaMismatch);
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
  }
}

TEST(Handshake, TrafficBeforeHelloIsRejected) {
  // A peer that skips the handshake (or a misrouted byte stream that happens
  // to frame correctly) is refused at its first application frame.
  auto [a, b] = LoopbackTransport::createPair(/*withHandshake=*/false);
  a->send(MessageType::kHeartbeat, encode(HeartbeatMsg{"s", 1.0}));
  try {
    b->poll(nullptr);
    FAIL() << "expected FrameDecodeError";
  } catch (const FrameDecodeError& e) {
    EXPECT_EQ(e.kind(), FrameError::kSchemaMismatch);
    EXPECT_NE(std::string(e.what()).find("before the schema handshake"),
              std::string::npos)
        << e.what();
  }
}

TEST(Queue, FlushWritesEveryQueuedMessageInQueueOrder) {
  auto [a, b] = LoopbackTransport::createPair();
  for (int i = 0; i < 3; ++i) {
    a->queue(MessageType::kLoadReport, encode(LoadReportMsg{"s", 1.0 * i, 0, 0}));
  }
  a->queue(MessageType::kRegister, encode(RegisterMsg{}));
  for (int i = 0; i < 2; ++i) {
    a->queue(MessageType::kHeartbeat, encode(HeartbeatMsg{"s", 1.0 * i}));
  }
  EXPECT_EQ(a->flushQueued(), 6u);
  std::vector<MessageType> types;
  EXPECT_EQ(b->poll([&](Frame f) { types.push_back(f.type); }), 6u);
  const std::vector<MessageType> want = {
      MessageType::kLoadReport, MessageType::kLoadReport, MessageType::kLoadReport,
      MessageType::kRegister,   MessageType::kHeartbeat,  MessageType::kHeartbeat};
  EXPECT_EQ(types, want);
  EXPECT_EQ(a->flushQueued(), 0u);  // queue drained
}

/// Queues a mixed burst of `count` small messages on `a`, flushes it in one
/// write, and checks that `b` receives every message in queue order.
void expectBurstArrivesInOrder(Transport& a, Transport& b, int count) {
  std::vector<std::pair<MessageType, double>> want;
  for (int i = 0; i < count; ++i) {
    const double mark = 1.0 * i;
    switch (i % 3) {
      case 0:
        a.queue(MessageType::kLoadReport, encode(LoadReportMsg{"s", mark, 0, 0}));
        want.emplace_back(MessageType::kLoadReport, mark);
        break;
      case 1:
        a.queue(MessageType::kHeartbeat, encode(HeartbeatMsg{"s", mark}));
        want.emplace_back(MessageType::kHeartbeat, mark);
        break;
      default:
        a.queue(MessageType::kScheduleRequest,
                encode(ScheduleRequestMsg{static_cast<std::uint64_t>(i), "p", 0, 0, 0, 0}));
        want.emplace_back(MessageType::kScheduleRequest, mark);
        break;
    }
  }
  EXPECT_EQ(a.flushQueued(), static_cast<std::size_t>(count));
  std::vector<std::pair<MessageType, double>> got;
  auto collect = [&](Frame f) {
    double mark = -1.0;
    switch (f.type) {
      case MessageType::kLoadReport: mark = decodeLoadReport(f.payload).loadAverage; break;
      case MessageType::kHeartbeat: mark = decodeHeartbeat(f.payload).sampleTime; break;
      case MessageType::kScheduleRequest:
        mark = static_cast<double>(decodeScheduleRequest(f.payload).taskId);
        break;
      default: break;
    }
    got.emplace_back(f.type, mark);
  };
  for (int tries = 0; tries < 2000 && got.size() < want.size(); ++tries) {
    b.poll(collect);
    if (got.size() < want.size()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(got, want);
}

TEST(Queue, OrderAcrossTypesIsPreserved) {
  auto [a, b] = LoopbackTransport::createPair();
  expectBurstArrivesInOrder(*a, *b, 300);

  // The same burst over a real socket: one send loop carries every frame.
  TcpListener listener(0);
  auto client = TcpTransport::connect("127.0.0.1", listener.port());
  auto serverSide = listener.accept(2000);
  ASSERT_NE(serverSide, nullptr);
  expectBurstArrivesInOrder(*client, *serverSide, 300);
}

TEST(Tcp, LoopbackConnectionCarriesFrames) {
  TcpListener listener(0);
  auto client = TcpTransport::connect("127.0.0.1", listener.port());
  ASSERT_NE(client, nullptr);
  auto serverSide = listener.accept(2000);
  ASSERT_NE(serverSide, nullptr);

  client->send(MessageType::kScheduleRequest,
               encode(ScheduleRequestMsg{5, "matmul-1200", 21.97, 10.98, 32.95, 18.0}));
  ScheduleRequestMsg got;
  for (int tries = 0; tries < 200 && got.taskId == 0; ++tries) {
    serverSide->poll([&](Frame f) { got = decodeScheduleRequest(f.payload); });
  }
  EXPECT_EQ(got.taskId, 5u);
  EXPECT_EQ(got.problem, "matmul-1200");

  serverSide->send(MessageType::kScheduleReply, encode(ScheduleReplyMsg{5, {"artimon"}}));
  ScheduleReplyMsg reply;
  for (int tries = 0; tries < 200 && reply.taskId == 0; ++tries) {
    client->poll([&](Frame f) { reply = decodeScheduleReply(f.payload); });
  }
  ASSERT_EQ(reply.servers.size(), 1u);
  EXPECT_EQ(reply.servers[0], "artimon");
}

TEST(Tcp, FramesOutCountsOnlyWritesThatCompleted) {
  // Closing the accepting side with the client's hello unread resets the
  // connection, so the client's writes soon fail and close its link. A
  // write that failed sent nothing and must count neither frames nor bytes.
  TcpListener listener(0);
  auto client = TcpTransport::connect("127.0.0.1", listener.port());
  auto serverSide = listener.accept(2000);
  ASSERT_NE(serverSide, nullptr);
  serverSide->close();

  obs::Registry& reg = obs::Registry::global();
  obs::Counter& framesOut = reg.counter("casched_net_frames_out_total");
  obs::Counter& bytesOut = reg.counter("casched_net_bytes_out_total");
  const std::uint64_t framesBefore = framesOut.value();
  const std::uint64_t bytesBefore = bytesOut.value();
  const Bytes payload = encode(HeartbeatMsg{"s", 1.0});
  std::uint64_t completed = 0;
  for (int tries = 0; tries < 2000 && !client->closed(); ++tries) {
    client->send(MessageType::kHeartbeat, payload);
    if (client->closed()) break;
    ++completed;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(client->closed());
  EXPECT_EQ(framesOut.value() - framesBefore, completed);
  EXPECT_EQ(bytesOut.value() - bytesBefore,
            completed * buildFrame(MessageType::kHeartbeat, payload).size());
}

TEST(Tcp, AcceptTimesOutWithoutClient) {
  TcpListener listener(0);
  EXPECT_EQ(listener.accept(10), nullptr);
}

TEST(Tcp, ConnectToClosedPortFails) {
  // Port 1 on loopback is almost certainly closed; expect refusal.
  EXPECT_THROW(TcpTransport::connect("127.0.0.1", 1), util::IoError);
}

}  // namespace
}  // namespace casched::wire
