// Seeded random-corruption fuzzing of wire::decode: every message type's
// encoding is subjected to byte flips, truncations and random garbage, and
// every decode must either succeed or throw a typed util::Error - never
// crash, hang, or allocate unboundedly (the clamp-before-reserve guard).
// Deterministic seeds keep failures reproducible; the seed is printed with
// every assertion so a red run can be replayed exactly.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "simcore/rng.hpp"
#include "util/error.hpp"
#include "wire/framing.hpp"
#include "wire/messages.hpp"
#include "wire/transport.hpp"

namespace casched::wire {
namespace {

/// One fuzz target: a named decoder plus a valid exemplar payload.
struct FuzzTarget {
  std::string name;
  Bytes exemplar;
  std::function<void(const Bytes&)> decode;
};

ScheduleRequestMsg sampleRequest(std::uint64_t id) {
  ScheduleRequestMsg t;
  t.taskId = id;
  t.problem = "matmul-1200";
  t.inMB = 23.0;
  t.outMB = 11.5;
  t.memMB = 96.0;
  t.refSeconds = 183.0;
  return t;
}

/// Exemplars cover every MessageType with realistic, non-empty payloads so
/// corruption hits string prefixes, list counts and trailing fields alike.
std::vector<FuzzTarget> fuzzTargets() {
  std::vector<FuzzTarget> targets;
  auto add = [&](std::string name, Bytes exemplar, auto decoder) {
    targets.push_back({std::move(name), std::move(exemplar),
                       [decoder](const Bytes& b) { (void)decoder(b); }});
  };

  RegisterMsg reg;
  reg.serverName = "artimon";
  reg.bwInMBps = 7.4;
  reg.bwOutMBps = 12.1;
  reg.latencyIn = 0.05;
  reg.latencyOut = 0.04;
  reg.ramMB = 512;
  reg.swapMB = 1024;
  reg.speedIndex = 1.37;
  reg.problems = {"matmul-1200", "waste-cpu-400", "*"};
  add("register", encode(reg), decodeRegister);

  RegisterAckMsg ack;
  ack.serverName = "artimon";
  ack.accepted = true;
  ack.agentTime = 12.5;
  add("register-ack", encode(ack), decodeRegisterAck);

  add("schedule-request", encode(sampleRequest(42)), decodeScheduleRequest);

  ScheduleReplyMsg reply;
  reply.taskId = 42;
  reply.servers = {"artimon", "spinnaker", "sloop"};
  add("schedule-reply", encode(reply), decodeScheduleReply);

  TaskSubmitMsg submit;
  submit.taskId = 42;
  submit.problem = "matmul-1200";
  submit.inMB = 23.0;
  submit.cpuSeconds = 183.0;
  submit.outMB = 11.5;
  submit.memMB = 96.0;
  add("task-submit", encode(submit), decodeTaskSubmit);

  TaskCompleteMsg complete;
  complete.taskId = 42;
  complete.serverName = "artimon";
  complete.completionTime = 211.0;
  complete.unloadedDuration = 190.0;
  add("task-complete", encode(complete), decodeTaskComplete);

  TaskFailedMsg failed;
  failed.taskId = 42;
  failed.serverName = "artimon";
  failed.reason = "collapse";
  add("task-failed", encode(failed), decodeTaskFailed);

  LoadReportMsg load;
  load.serverName = "artimon";
  load.loadAverage = 1.5;
  load.sampleTime = 60.0;
  load.residentMB = 384.0;
  add("load-report", encode(load), decodeLoadReport);

  add("server-down", encode(ServerDownMsg{"artimon"}), decodeServerDown);
  add("server-up", encode(ServerUpMsg{"artimon"}), decodeServerUp);
  add("shutdown", encode(ShutdownMsg{"operator request"}), decodeShutdown);

  HeartbeatMsg hb;
  hb.serverName = "artimon";
  hb.sampleTime = 33.0;
  add("heartbeat", encode(hb), decodeHeartbeat);

  AgentHelloMsg hello;
  hello.agentName = "agent-1";
  hello.mode = "partitioned";
  hello.sampleTime = 5.0;
  hello.ownedServers = {"artimon", "spinnaker"};
  hello.listenPort = 45123;
  add("agent-hello", encode(hello), decodeAgentHello);

  AgentSyncMsg sync;
  sync.agentName = "agent-1";
  sync.sampleTime = 10.0;
  sync.loads = {{"artimon", 0.5, 9.0}, {"spinnaker", 2.0, 8.0}};
  sync.snapshotSeq = 3;
  sync.chunkIndex = 0;
  sync.chunkCount = 1;
  sync.snapshotChunk = Bytes{1, 2, 3, 4, 5, 6, 7, 8};
  sync.queuedTasks = 4;
  add("agent-sync", encode(sync), decodeAgentSync);

  add("stats-request", encode(StatsRequestMsg{"json"}), decodeStatsRequest);

  StatsReplyMsg stats;
  stats.agentName = "agent-1";
  stats.sampleTime = 10.0;
  stats.format = "json";
  stats.body = "{\"counters\":{}}";
  add("stats-reply", encode(stats), decodeStatsReply);

  ForwardRequestMsg forward;
  forward.task = sampleRequest(77);
  forward.originAgent = "agent-0";
  forward.hops = 1;
  add("forward-request", encode(forward), decodeForwardRequest);

  ForwardDenyMsg fdeny;
  fdeny.taskId = 77;
  fdeny.agentName = "agent-1";
  fdeny.reason = "no feasible server";
  add("forward-deny", encode(fdeny), decodeForwardDeny);

  ScheduleDenyMsg sdeny;
  sdeny.taskId = 77;
  sdeny.agentName = "agent-0";
  sdeny.reason = "agent has no registered servers";
  add("schedule-deny", encode(sdeny), decodeScheduleDeny);

  StealRequestMsg steal;
  steal.agentName = "agent-2";
  steal.capacity = 8;
  add("steal-request", encode(steal), decodeStealRequest);

  StealGrantMsg grant;
  grant.agentName = "agent-1";
  grant.tasks = {sampleRequest(101), sampleRequest(102), sampleRequest(103)};
  add("steal-grant", encode(grant), decodeStealGrant);

  ResolverProbeMsg probe;
  probe.probeId = 9;
  probe.sendTime = 123.456;
  add("resolver-probe", encode(probe), decodeResolverProbe);

  ResolverInfoMsg info;
  info.agentName = "agent-1";
  info.probeId = 9;
  info.echoSendTime = 123.456;
  info.sampleTime = 50.0;
  info.meanLoad = 1.25;
  info.liveServers = 4;
  info.queuedTasks = 2;
  info.peerAddresses = {"127.0.0.1:9001", "127.0.0.1:9002"};
  add("resolver-info", encode(info), decodeResolverInfo);

  add("schema-hello", encode(SchemaHelloMsg{}), decodeSchemaHello);

  return targets;
}

/// Decodes the corrupted payload, accepting success or any typed error.
/// Anything else (segfault, bad_alloc past the handlers, uncaught foreign
/// exception) fails the whole binary, which is the point.
void decodeMustNotCrash(const FuzzTarget& target, const Bytes& corrupted,
                        std::uint64_t seed, const char* mode) {
  try {
    target.decode(corrupted);
  } catch (const util::Error&) {
    // Expected: corruption surfaced as a typed decode/config error.
  } catch (const std::exception& e) {
    FAIL() << target.name << " (" << mode << ", seed " << seed
           << "): decode threw a non-util exception: " << e.what();
  }
}

TEST(WireFuzz, ExemplarsCoverEveryMessageType) {
  // A new MessageType must come with a fuzz exemplar: count the enum range.
  const auto first = static_cast<std::uint16_t>(MessageType::kRegister);
  const auto last = static_cast<std::uint16_t>(MessageType::kSchemaHello);
  EXPECT_EQ(fuzzTargets().size(), static_cast<std::size_t>(last - first + 1));
}

TEST(WireFuzz, ByteFlipsNeverCrashDecode) {
  for (const FuzzTarget& target : fuzzTargets()) {
    simcore::Xoshiro256 rng(0xF1A9'0000 ^ std::hash<std::string>{}(target.name));
    for (int round = 0; round < 400; ++round) {
      Bytes corrupted = target.exemplar;
      const std::size_t flips = 1 + rng.nextBelow(4);
      for (std::size_t f = 0; f < flips && !corrupted.empty(); ++f) {
        const std::size_t pos = rng.nextBelow(corrupted.size());
        corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.nextBelow(255));
      }
      decodeMustNotCrash(target, corrupted, round, "flip");
    }
  }
}

TEST(WireFuzz, TruncationsNeverCrashDecode) {
  for (const FuzzTarget& target : fuzzTargets()) {
    // Every prefix, not a sample: truncation mid-field must throw cleanly.
    for (std::size_t len = 0; len < target.exemplar.size(); ++len) {
      Bytes corrupted(target.exemplar.begin(), target.exemplar.begin() + len);
      decodeMustNotCrash(target, corrupted, len, "truncate");
    }
  }
}

TEST(WireFuzz, FlippedThenTruncatedNeverCrashDecode) {
  for (const FuzzTarget& target : fuzzTargets()) {
    simcore::Xoshiro256 rng(0xF1A9'1111 ^ std::hash<std::string>{}(target.name));
    for (int round = 0; round < 200; ++round) {
      Bytes corrupted = target.exemplar;
      if (!corrupted.empty()) {
        const std::size_t pos = rng.nextBelow(corrupted.size());
        corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.nextBelow(255));
        corrupted.resize(rng.nextBelow(corrupted.size() + 1));
      }
      decodeMustNotCrash(target, corrupted, round, "flip+truncate");
    }
  }
}

TEST(WireFuzz, RandomGarbageNeverCrashesDecode) {
  for (const FuzzTarget& target : fuzzTargets()) {
    simcore::Xoshiro256 rng(0xF1A9'2222 ^ std::hash<std::string>{}(target.name));
    for (int round = 0; round < 200; ++round) {
      Bytes garbage(rng.nextBelow(256));
      for (std::uint8_t& b : garbage) {
        b = static_cast<std::uint8_t>(rng.nextBelow(256));
      }
      decodeMustNotCrash(target, garbage, round, "garbage");
    }
  }
}

TEST(WireFuzz, CorruptFramesNeverCrashTheFrameDecoder) {
  // Frame-level corruption: flip bytes of a whole framed message stream and
  // pump it through the incremental decoder. Bad headers must throw, valid
  // frames with corrupt payloads must surface to (and be rejected by) the
  // per-message decoders above - the decoder itself must survive.
  const std::vector<FuzzTarget> targets = fuzzTargets();
  simcore::Xoshiro256 rng(0xF1A9'3333);
  for (int round = 0; round < 300; ++round) {
    Bytes stream;
    for (int f = 0; f < 3; ++f) {
      const FuzzTarget& target = targets[rng.nextBelow(targets.size())];
      const Bytes frame =
          buildFrame(MessageType::kRegister, target.exemplar);
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    const std::size_t flips = 1 + rng.nextBelow(6);
    for (std::size_t f = 0; f < flips && !stream.empty(); ++f) {
      const std::size_t pos = rng.nextBelow(stream.size());
      stream[pos] ^= static_cast<std::uint8_t>(1 + rng.nextBelow(255));
    }
    FrameDecoder decoder;
    try {
      decoder.feed(stream);
      while (decoder.next()) {
      }
    } catch (const util::Error&) {
      // Expected for corrupt headers (bad version, oversized length).
    }
  }
}

TEST(WireFuzz, FrameBodyFlipsAreNamedAndNeverSilentlyAccepted) {
  // The CRC trailer's contract: any flip after the length prefix must surface
  // as a named FrameDecodeError (version if the flip hit the version word,
  // checksum otherwise) - a corrupted frame must never decode as if intact.
  const std::vector<FuzzTarget> targets = fuzzTargets();
  simcore::Xoshiro256 rng(0xF1A9'4444);
  for (int round = 0; round < 400; ++round) {
    const FuzzTarget& target = targets[rng.nextBelow(targets.size())];
    const Bytes original = buildFrame(MessageType::kRegister, target.exemplar);
    Bytes corrupted = original;
    const std::size_t pos = 4 + rng.nextBelow(corrupted.size() - 4);
    corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.nextBelow(255));
    FrameDecoder decoder;
    decoder.feed(corrupted);
    try {
      const auto frame = decoder.next();
      if (frame.has_value()) {
        FAIL() << target.name << " (seed " << round << ", offset " << pos
               << "): corrupted frame decoded without an error";
      }
    } catch (const FrameDecodeError& e) {
      EXPECT_TRUE(e.kind() == FrameError::kBadChecksum ||
                  e.kind() == FrameError::kBadVersion)
          << target.name << " (seed " << round << "): unexpected kind in '"
          << e.what() << "'";
    }
  }
}

TEST(WireFuzz, HandshakeCorruptionIsRejectedAsSchemaMismatch) {
  // Flips and truncations of the connect hello (magic + hash bytes) must all
  // land in the named schema-mismatch error at the transport layer.
  const Bytes hello = encode(SchemaHelloMsg{});
  simcore::Xoshiro256 rng(0xF1A9'5555);
  for (int round = 0; round < 200; ++round) {
    Bytes corrupted = hello;
    if (round % 2 == 0) {
      // Flip inside the verified fields: magic (0..3) or hash (4..11). The
      // trailing version word is informational and not compared.
      corrupted[rng.nextBelow(12)] ^= static_cast<std::uint8_t>(1 + rng.nextBelow(255));
    } else {
      corrupted.resize(rng.nextBelow(corrupted.size()));
    }
    auto [a, b] = LoopbackTransport::createPair(/*withHandshake=*/false);
    a->send(MessageType::kSchemaHello, corrupted);
    try {
      b->poll(nullptr);
      FAIL() << "corrupted handshake accepted (seed " << round << ")";
    } catch (const FrameDecodeError& e) {
      EXPECT_EQ(e.kind(), FrameError::kSchemaMismatch)
          << "seed " << round << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace casched::wire
