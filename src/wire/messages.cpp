#include "wire/messages.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace casched::wire {

std::string messageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kRegister: return "register";
    case MessageType::kRegisterAck: return "register-ack";
    case MessageType::kScheduleRequest: return "schedule-request";
    case MessageType::kScheduleReply: return "schedule-reply";
    case MessageType::kTaskSubmit: return "task-submit";
    case MessageType::kTaskComplete: return "task-complete";
    case MessageType::kTaskFailed: return "task-failed";
    case MessageType::kLoadReport: return "load-report";
    case MessageType::kServerDown: return "server-down";
    case MessageType::kServerUp: return "server-up";
    case MessageType::kShutdown: return "shutdown";
    case MessageType::kHeartbeat: return "heartbeat";
    case MessageType::kAgentHello: return "agent-hello";
    case MessageType::kAgentSync: return "agent-sync";
    case MessageType::kStatsRequest: return "stats-request";
    case MessageType::kStatsReply: return "stats-reply";
    case MessageType::kForwardRequest: return "forward-request";
    case MessageType::kForwardDeny: return "forward-deny";
    case MessageType::kScheduleDeny: return "schedule-deny";
    case MessageType::kStealRequest: return "steal-request";
    case MessageType::kStealGrant: return "steal-grant";
    case MessageType::kResolverProbe: return "resolver-probe";
    case MessageType::kResolverInfo: return "resolver-info";
    case MessageType::kSchemaHello: return "schema-hello";
  }
  return "unknown";
}

bool isKnownMessageType(std::uint16_t rawType) {
  return rawType >= static_cast<std::uint16_t>(MessageType::kRegister) &&
         rawType <= static_cast<std::uint16_t>(MessageType::kSchemaHello);
}

namespace {
void writeStringList(Writer& w, const std::vector<std::string>& v) {
  CASCHED_CHECK(v.size() <= 0xFFFFFFFFull, "list too long for wire format");
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const std::string& s : v) w.str(s);
}

/// Clamp a wire-supplied element count before reserve(): a corrupt frame
/// claiming 2^32 elements must fail with DecodeError when the payload runs
/// dry, not throw bad_alloc past the util::Error handlers and kill the
/// daemon. Every element consumes at least `minElemBytes` of payload.
std::size_t clampCount(std::uint32_t n, const Reader& r, std::size_t minElemBytes) {
  return std::min<std::size_t>(n, r.remaining() / minElemBytes);
}

std::vector<std::string> readStringList(Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<std::string> v;
  v.reserve(clampCount(n, r, 4));  // a string is at least its u32 length prefix
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.str());
  return v;
}
}  // namespace

Bytes encode(const RegisterMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.serverName);
  w.f64(m.bwInMBps);
  w.f64(m.bwOutMBps);
  w.f64(m.latencyIn);
  w.f64(m.latencyOut);
  w.f64(m.ramMB);
  w.f64(m.swapMB);
  w.f64(m.speedIndex);
  writeStringList(w, m.problems);
  return out;
}

RegisterMsg decodeRegister(const Bytes& payload) {
  Reader r(payload);
  RegisterMsg m;
  m.serverName = r.str();
  m.bwInMBps = r.f64();
  m.bwOutMBps = r.f64();
  m.latencyIn = r.f64();
  m.latencyOut = r.f64();
  m.ramMB = r.f64();
  m.swapMB = r.f64();
  m.speedIndex = r.f64();
  m.problems = readStringList(r);
  return m;
}

Bytes encode(const RegisterAckMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.serverName);
  w.u8(m.accepted ? 1 : 0);
  w.f64(m.agentTime);
  return out;
}

RegisterAckMsg decodeRegisterAck(const Bytes& payload) {
  Reader r(payload);
  RegisterAckMsg m;
  m.serverName = r.str();
  m.accepted = r.u8() != 0;
  m.agentTime = r.f64();
  return m;
}

Bytes encode(const ScheduleRequestMsg& m) {
  Bytes out;
  Writer w(out);
  w.u64(m.taskId);
  w.str(m.problem);
  w.f64(m.inMB);
  w.f64(m.outMB);
  w.f64(m.memMB);
  w.f64(m.refSeconds);
  return out;
}

ScheduleRequestMsg decodeScheduleRequest(const Bytes& payload) {
  Reader r(payload);
  ScheduleRequestMsg m;
  m.taskId = r.u64();
  m.problem = r.str();
  m.inMB = r.f64();
  m.outMB = r.f64();
  m.memMB = r.f64();
  m.refSeconds = r.f64();
  return m;
}

Bytes encode(const ScheduleReplyMsg& m) {
  Bytes out;
  Writer w(out);
  w.u64(m.taskId);
  writeStringList(w, m.servers);
  return out;
}

ScheduleReplyMsg decodeScheduleReply(const Bytes& payload) {
  Reader r(payload);
  ScheduleReplyMsg m;
  m.taskId = r.u64();
  m.servers = readStringList(r);
  return m;
}

Bytes encode(const TaskSubmitMsg& m) {
  Bytes out;
  Writer w(out);
  w.u64(m.taskId);
  w.str(m.problem);
  w.f64(m.inMB);
  w.f64(m.cpuSeconds);
  w.f64(m.outMB);
  w.f64(m.memMB);
  return out;
}

TaskSubmitMsg decodeTaskSubmit(const Bytes& payload) {
  Reader r(payload);
  TaskSubmitMsg m;
  m.taskId = r.u64();
  m.problem = r.str();
  m.inMB = r.f64();
  m.cpuSeconds = r.f64();
  m.outMB = r.f64();
  m.memMB = r.f64();
  return m;
}

Bytes encode(const TaskCompleteMsg& m) {
  Bytes out;
  Writer w(out);
  w.u64(m.taskId);
  w.str(m.serverName);
  w.f64(m.completionTime);
  w.f64(m.unloadedDuration);
  return out;
}

TaskCompleteMsg decodeTaskComplete(const Bytes& payload) {
  Reader r(payload);
  TaskCompleteMsg m;
  m.taskId = r.u64();
  m.serverName = r.str();
  m.completionTime = r.f64();
  m.unloadedDuration = r.f64();
  return m;
}

Bytes encode(const TaskFailedMsg& m) {
  Bytes out;
  Writer w(out);
  w.u64(m.taskId);
  w.str(m.serverName);
  w.str(m.reason);
  return out;
}

TaskFailedMsg decodeTaskFailed(const Bytes& payload) {
  Reader r(payload);
  TaskFailedMsg m;
  m.taskId = r.u64();
  m.serverName = r.str();
  m.reason = r.str();
  return m;
}

Bytes encode(const LoadReportMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.serverName);
  w.f64(m.loadAverage);
  w.f64(m.sampleTime);
  return out;
}

LoadReportMsg decodeLoadReport(const Bytes& payload) {
  Reader r(payload);
  LoadReportMsg m;
  m.serverName = r.str();
  m.loadAverage = r.f64();
  m.sampleTime = r.f64();
  return m;
}

Bytes encode(const ServerDownMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.serverName);
  return out;
}

ServerDownMsg decodeServerDown(const Bytes& payload) {
  Reader r(payload);
  ServerDownMsg m;
  m.serverName = r.str();
  return m;
}

Bytes encode(const ServerUpMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.serverName);
  return out;
}

ServerUpMsg decodeServerUp(const Bytes& payload) {
  Reader r(payload);
  ServerUpMsg m;
  m.serverName = r.str();
  return m;
}

Bytes encode(const ShutdownMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.reason);
  return out;
}

ShutdownMsg decodeShutdown(const Bytes& payload) {
  Reader r(payload);
  ShutdownMsg m;
  m.reason = r.str();
  return m;
}

Bytes encode(const HeartbeatMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.serverName);
  w.f64(m.sampleTime);
  return out;
}

HeartbeatMsg decodeHeartbeat(const Bytes& payload) {
  Reader r(payload);
  HeartbeatMsg m;
  m.serverName = r.str();
  m.sampleTime = r.f64();
  return m;
}

Bytes encode(const AgentHelloMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.agentName);
  w.f64(m.sampleTime);
  writeStringList(w, m.ownedServers);
  w.u16(m.listenPort);
  return out;
}

AgentHelloMsg decodeAgentHello(const Bytes& payload) {
  Reader r(payload);
  AgentHelloMsg m;
  m.agentName = r.str();
  m.sampleTime = r.f64();
  m.ownedServers = readStringList(r);
  m.listenPort = r.u16();
  return m;
}

Bytes encode(const AgentSyncMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.agentName);
  w.f64(m.sampleTime);
  CASCHED_CHECK(m.loads.size() <= 0xFFFFFFFFull, "load digest list too long");
  w.u32(static_cast<std::uint32_t>(m.loads.size()));
  for (const LoadDigest& d : m.loads) {
    w.str(d.serverName);
    w.f64(d.loadAverage);
    w.f64(d.sampleTime);
  }
  w.u64(m.snapshotSeq);
  w.u32(m.chunkIndex);
  w.u32(m.chunkCount);
  w.bytes(m.snapshotChunk);
  w.u32(m.queuedTasks);
  return out;
}

AgentSyncMsg decodeAgentSync(const Bytes& payload) {
  Reader r(payload);
  AgentSyncMsg m;
  m.agentName = r.str();
  m.sampleTime = r.f64();
  const std::uint32_t n = r.u32();
  m.loads.reserve(clampCount(n, r, 20));  // name prefix + two f64s
  for (std::uint32_t i = 0; i < n; ++i) {
    LoadDigest d;
    d.serverName = r.str();
    d.loadAverage = r.f64();
    d.sampleTime = r.f64();
    m.loads.push_back(std::move(d));
  }
  m.snapshotSeq = r.u64();
  m.chunkIndex = r.u32();
  m.chunkCount = r.u32();
  m.snapshotChunk = r.bytes();
  m.queuedTasks = r.u32();
  return m;
}

Bytes encode(const StatsRequestMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.format);
  return out;
}

StatsRequestMsg decodeStatsRequest(const Bytes& payload) {
  Reader r(payload);
  StatsRequestMsg m;
  m.format = r.str();
  return m;
}

Bytes encode(const StatsReplyMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.agentName);
  w.f64(m.sampleTime);
  w.str(m.format);
  w.str(m.body);
  return out;
}

StatsReplyMsg decodeStatsReply(const Bytes& payload) {
  Reader r(payload);
  StatsReplyMsg m;
  m.agentName = r.str();
  m.sampleTime = r.f64();
  m.format = r.str();
  m.body = r.str();
  return m;
}

namespace {
void writeTaskSpec(Writer& w, const ScheduleRequestMsg& t) {
  w.u64(t.taskId);
  w.str(t.problem);
  w.f64(t.inMB);
  w.f64(t.outMB);
  w.f64(t.memMB);
  w.f64(t.refSeconds);
}

ScheduleRequestMsg readTaskSpec(Reader& r) {
  ScheduleRequestMsg t;
  t.taskId = r.u64();
  t.problem = r.str();
  t.inMB = r.f64();
  t.outMB = r.f64();
  t.memMB = r.f64();
  t.refSeconds = r.f64();
  return t;
}
}  // namespace

Bytes encode(const ForwardRequestMsg& m) {
  Bytes out;
  Writer w(out);
  writeTaskSpec(w, m.task);
  w.str(m.originAgent);
  w.u32(m.hops);
  return out;
}

ForwardRequestMsg decodeForwardRequest(const Bytes& payload) {
  Reader r(payload);
  ForwardRequestMsg m;
  m.task = readTaskSpec(r);
  m.originAgent = r.str();
  m.hops = r.u32();
  return m;
}

Bytes encode(const ForwardDenyMsg& m) {
  Bytes out;
  Writer w(out);
  w.u64(m.taskId);
  w.str(m.agentName);
  w.str(m.reason);
  return out;
}

ForwardDenyMsg decodeForwardDeny(const Bytes& payload) {
  Reader r(payload);
  ForwardDenyMsg m;
  m.taskId = r.u64();
  m.agentName = r.str();
  m.reason = r.str();
  return m;
}

Bytes encode(const ScheduleDenyMsg& m) {
  Bytes out;
  Writer w(out);
  w.u64(m.taskId);
  w.str(m.agentName);
  w.str(m.reason);
  return out;
}

ScheduleDenyMsg decodeScheduleDeny(const Bytes& payload) {
  Reader r(payload);
  ScheduleDenyMsg m;
  m.taskId = r.u64();
  m.agentName = r.str();
  m.reason = r.str();
  return m;
}

Bytes encode(const StealRequestMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.agentName);
  w.u32(m.capacity);
  return out;
}

StealRequestMsg decodeStealRequest(const Bytes& payload) {
  Reader r(payload);
  StealRequestMsg m;
  m.agentName = r.str();
  m.capacity = r.u32();
  return m;
}

Bytes encode(const StealGrantMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.agentName);
  CASCHED_CHECK(m.tasks.size() <= 0xFFFFFFFFull, "steal grant list too long");
  w.u32(static_cast<std::uint32_t>(m.tasks.size()));
  for (const ScheduleRequestMsg& t : m.tasks) writeTaskSpec(w, t);
  return out;
}

StealGrantMsg decodeStealGrant(const Bytes& payload) {
  Reader r(payload);
  StealGrantMsg m;
  m.agentName = r.str();
  const std::uint32_t n = r.u32();
  m.tasks.reserve(clampCount(n, r, 44));  // u64 id + str prefix + four f64s
  for (std::uint32_t i = 0; i < n; ++i) m.tasks.push_back(readTaskSpec(r));
  return m;
}

Bytes encode(const ResolverProbeMsg& m) {
  Bytes out;
  Writer w(out);
  w.u64(m.probeId);
  w.f64(m.sendTime);
  return out;
}

ResolverProbeMsg decodeResolverProbe(const Bytes& payload) {
  Reader r(payload);
  ResolverProbeMsg m;
  m.probeId = r.u64();
  m.sendTime = r.f64();
  return m;
}

Bytes encode(const ResolverInfoMsg& m) {
  Bytes out;
  Writer w(out);
  w.str(m.agentName);
  w.u64(m.probeId);
  w.f64(m.echoSendTime);
  w.f64(m.sampleTime);
  w.f64(m.meanLoad);
  w.u32(m.liveServers);
  w.u32(m.queuedTasks);
  writeStringList(w, m.peerAddresses);
  return out;
}

ResolverInfoMsg decodeResolverInfo(const Bytes& payload) {
  Reader r(payload);
  ResolverInfoMsg m;
  m.agentName = r.str();
  m.probeId = r.u64();
  m.echoSendTime = r.f64();
  m.sampleTime = r.f64();
  m.meanLoad = r.f64();
  m.liveServers = r.u32();
  m.queuedTasks = r.u32();
  m.peerAddresses = readStringList(r);
  return m;
}

Bytes encode(const SchemaHelloMsg& m) {
  Bytes out;
  Writer w(out);
  w.u32(m.magic);
  w.u64(m.schemaHash);
  w.u16(m.protocolVersion);
  return out;
}

SchemaHelloMsg decodeSchemaHello(const Bytes& payload) {
  Reader r(payload);
  SchemaHelloMsg m;
  m.magic = r.u32();
  m.schemaHash = r.u64();
  m.protocolVersion = r.u16();
  return m;
}

}  // namespace casched::wire
