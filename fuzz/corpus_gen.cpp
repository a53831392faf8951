// Regenerates the checked-in libFuzzer seed corpus (fuzz/corpus) from valid
// encoded frames: one file per message type, plus a multi-frame stream.
// Valid seeds matter - the fuzzer mutates from them, so every seed that
// decodes cleanly puts mutations one bit-flip away from the deep decode
// paths instead of dying at the length prefix. Usage:
// wire_corpus_gen <output-dir>
//
// Builds with any compiler (the libFuzzer target itself is clang-only).

#include <cstdio>
#include <string>
#include <vector>

#include "wire/framing.hpp"
#include "wire/messages.hpp"

namespace {

using namespace casched::wire;

bool writeSeed(const std::string& dir, const std::string& name, const Bytes& bytes) {
  const std::string path = dir + "/" + name + ".bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return false;
  }
  std::printf("%s.bin: %zu bytes\n", name.c_str(), bytes.size());
  return true;
}

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

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];

  std::vector<std::pair<std::string, Bytes>> seeds;
  auto frame = [&](const std::string& name, MessageType type, const Bytes& payload) {
    seeds.emplace_back(name, buildFrame(type, payload));
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
  frame("register", MessageType::kRegister, encode(reg));
  frame("register_ack", MessageType::kRegisterAck,
        encode(RegisterAckMsg{"artimon", true, 12.5}));
  frame("schedule_request", MessageType::kScheduleRequest, encode(sampleRequest(42)));
  frame("schedule_reply", MessageType::kScheduleReply,
        encode(ScheduleReplyMsg{42, {"artimon", "spinnaker", "sloop"}}));

  TaskSubmitMsg submit;
  submit.taskId = 42;
  submit.problem = "matmul-1200";
  submit.inMB = 23.0;
  submit.cpuSeconds = 183.0;
  submit.outMB = 11.5;
  submit.memMB = 96.0;
  frame("task_submit", MessageType::kTaskSubmit, encode(submit));
  frame("task_complete", MessageType::kTaskComplete,
        encode(TaskCompleteMsg{42, "artimon", 211.0, 190.0}));
  frame("task_failed", MessageType::kTaskFailed,
        encode(TaskFailedMsg{42, "artimon", "collapse"}));
  frame("load_report", MessageType::kLoadReport,
        encode(LoadReportMsg{"artimon", 1.5, 60.0, 384.0}));
  frame("server_down", MessageType::kServerDown, encode(ServerDownMsg{"artimon"}));
  frame("server_up", MessageType::kServerUp, encode(ServerUpMsg{"artimon"}));
  frame("shutdown", MessageType::kShutdown, encode(ShutdownMsg{"operator request"}));
  frame("heartbeat", MessageType::kHeartbeat, encode(HeartbeatMsg{"artimon", 33.0}));

  AgentHelloMsg hello;
  hello.agentName = "agent-1";
  hello.mode = "partitioned";
  hello.sampleTime = 5.0;
  hello.ownedServers = {"artimon", "spinnaker"};
  hello.listenPort = 45123;
  frame("agent_hello", MessageType::kAgentHello, encode(hello));

  AgentSyncMsg sync;
  sync.agentName = "agent-1";
  sync.sampleTime = 10.0;
  sync.loads = {{"artimon", 0.5, 9.0}, {"spinnaker", 2.0, 8.0}};
  sync.snapshotSeq = 3;
  sync.chunkIndex = 0;
  sync.chunkCount = 1;
  sync.snapshotChunk = Bytes{1, 2, 3, 4, 5, 6, 7, 8};
  sync.queuedTasks = 4;
  frame("agent_sync", MessageType::kAgentSync, encode(sync));

  frame("stats_request", MessageType::kStatsRequest, encode(StatsRequestMsg{"json"}));

  StatsReplyMsg stats;
  stats.agentName = "agent-1";
  stats.sampleTime = 10.0;
  stats.format = "json";
  stats.body = "{\"counters\":{}}";
  frame("stats_reply", MessageType::kStatsReply, encode(stats));

  ForwardRequestMsg forward;
  forward.task = sampleRequest(77);
  forward.originAgent = "agent-0";
  forward.hops = 1;
  frame("forward_request", MessageType::kForwardRequest, encode(forward));
  frame("forward_deny", MessageType::kForwardDeny,
        encode(ForwardDenyMsg{77, "agent-1", "no feasible server"}));
  frame("schedule_deny", MessageType::kScheduleDeny,
        encode(ScheduleDenyMsg{77, "agent-0", "agent has no registered servers"}));
  frame("steal_request", MessageType::kStealRequest,
        encode(StealRequestMsg{"agent-2", 8}));

  StealGrantMsg grant;
  grant.agentName = "agent-1";
  grant.tasks = {sampleRequest(101), sampleRequest(102), sampleRequest(103)};
  frame("steal_grant", MessageType::kStealGrant, encode(grant));

  frame("resolver_probe", MessageType::kResolverProbe,
        encode(ResolverProbeMsg{9, 123.456}));

  ResolverInfoMsg info;
  info.agentName = "agent-1";
  info.probeId = 9;
  info.echoSendTime = 123.456;
  info.sampleTime = 50.0;
  info.meanLoad = 1.25;
  info.liveServers = 4;
  info.queuedTasks = 2;
  info.peerAddresses = {"127.0.0.1:9001", "127.0.0.1:9002"};
  frame("resolver_info", MessageType::kResolverInfo, encode(info));

  frame("schema_hello", MessageType::kSchemaHello, encode(SchemaHelloMsg{}));

  // A handshake-then-traffic stream, as a real connection's first bytes look.
  Bytes stream;
  for (const Bytes& part : {buildFrame(MessageType::kSchemaHello, encode(SchemaHelloMsg{})),
                            buildFrame(MessageType::kRegister, encode(reg)),
                            buildFrame(MessageType::kHeartbeat,
                                       encode(HeartbeatMsg{"artimon", 33.0}))}) {
    stream.insert(stream.end(), part.begin(), part.end());
  }
  seeds.emplace_back("stream_hello_register_heartbeat", stream);

  bool ok = true;
  for (const auto& [name, bytes] : seeds) ok = writeSeed(dir, name, bytes) && ok;
  return ok ? 0 : 1;
}
