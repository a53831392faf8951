#pragma once
/// \file messages.hpp
/// The middleware's wire protocol: every interaction of the client-agent-
/// server model as a typed, versioned message. The simulation dispatches the
/// same logical events through direct calls for speed; the grid_rpc_demo
/// example and the protocol tests exercise these encodings end to end.

#include <cstdint>
#include <string>
#include <vector>

#include "wire/buffer.hpp"

namespace casched::wire {

/// v2 added the heartbeat message and the registration speed index; v3 added
/// the agent-to-agent replication messages (kAgentHello registration and
/// kAgentSync load-digest + HTM-snapshot-chunk sync); v4 adds the agent mesh:
/// peer request forwarding (kForwardRequest/kForwardDeny), an explicit
/// client-facing deny (kScheduleDeny), work-stealing (kStealRequest/
/// kStealGrant) and the client-side resolver probe pair (kResolverProbe/
/// kResolverInfo), plus the hello's listen port and the sync's parked-task
/// count; v5 adds the integrity layer: a CRC32 trailer on every frame and
/// the magic + schema-hash connect handshake (kSchemaHello); v6 drops v5's
/// multi-message envelope (type 25), so every frame carries exactly one
/// message; v7 drops two fields no receiver read, the hello's replication
/// mode and the load report's resident memory. Peers speaking another version
/// are rejected with a typed error naming both versions.
constexpr std::uint16_t kProtocolVersion = 7;

enum class MessageType : std::uint16_t {
  kRegister = 1,       ///< server -> agent: problems + peak performances
  kRegisterAck = 2,    ///< agent -> server
  kScheduleRequest = 3,///< client -> agent: solve this problem
  kScheduleReply = 4,  ///< agent -> client: ranked server list
  kTaskSubmit = 5,     ///< client -> server: run it (input data follows)
  kTaskComplete = 6,   ///< server -> agent/client: done + completion date
  kTaskFailed = 7,     ///< server -> agent/client
  kLoadReport = 8,     ///< server -> agent: damped load average
  kServerDown = 9,     ///< server -> agent (collapse)
  kServerUp = 10,      ///< server -> agent (recovery / re-registration)
  kShutdown = 11,      ///< orderly teardown
  kHeartbeat = 12,     ///< server -> agent: liveness beacon between reports
  kAgentHello = 13,    ///< agent -> agent: peer registration (name, owned servers)
  kAgentSync = 14,     ///< agent -> agent: load digests + HTM snapshot chunk
  kStatsRequest = 15,  ///< operator -> agent: metrics snapshot, please
  kStatsReply = 16,    ///< agent -> operator: rendered metrics snapshot
  kForwardRequest = 17,///< agent -> agent: place this task on your partition
  kForwardDeny = 18,   ///< agent -> agent: cannot place the forwarded task
  kScheduleDeny = 19,  ///< agent -> client: request refused (no servers, no peer)
  kStealRequest = 20,  ///< agent -> agent: idle; hand me parked tasks
  kStealGrant = 21,    ///< agent -> agent: parked tasks handed over
  kResolverProbe = 22, ///< client -> agent: RTT/load probe
  kResolverInfo = 23,  ///< agent -> client: probe echo + load + peer gossip
  kSchemaHello = 24,   ///< both directions: first frame; magic + schema hash
};

std::string messageTypeName(MessageType type);

/// True when `rawType` names a MessageType this build understands. The frame
/// decoder rejects everything else with the offending value.
bool isKnownMessageType(std::uint16_t rawType);

/// Magic constant opening every kSchemaHello payload: rejects non-protocol
/// peers (or misrouted byte streams) by name instead of by decode garbage.
constexpr std::uint32_t kWireMagic = 0x43415335;  // "CAS5"

/// Compile-time FNV-1a 64-bit hash.
constexpr std::uint64_t fnv1a64(const char* s) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (; *s != '\0'; ++s) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(*s));
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// The message schemas, spelled out as one flat definition string. Any change
/// to a message's fields (or their order/width) must be reflected here, which
/// changes kSchemaHash and makes mismatched builds reject each other at
/// connect time instead of mis-decoding each other's frames.
constexpr char kSchemaDefinition[] =
    "v7;"
    "register{str server;f64 bwIn,bwOut,latIn,latOut,ram,swap,speed;str[] problems};"
    "registerAck{str server;u8 accepted;f64 agentTime};"
    "scheduleRequest{u64 task;str problem;f64 in,out,mem,ref};"
    "scheduleReply{u64 task;str[] servers};"
    "taskSubmit{u64 task;str problem;f64 in,cpu,out,mem};"
    "taskComplete{u64 task;str server;f64 completion,unloaded};"
    "taskFailed{u64 task;str server,reason};"
    "loadReport{str server;f64 load,sample};"
    "serverDown{str server};serverUp{str server};shutdown{str reason};"
    "heartbeat{str server;f64 sample};"
    "agentHello{str agent;f64 sample;str[] owned;u16 port};"
    "agentSync{str agent;f64 sample;digest[]{str server;f64 load,sample};"
    "u64 seq;u32 chunkIndex,chunkCount;bytes chunk;u32 queued};"
    "statsRequest{str format};statsReply{str agent;f64 sample;str format,body};"
    "forwardRequest{scheduleRequest task;str origin;u32 hops};"
    "forwardDeny{u64 task;str agent,reason};scheduleDeny{u64 task;str agent,reason};"
    "stealRequest{str agent;u32 capacity};stealGrant{str agent;scheduleRequest[] tasks};"
    "resolverProbe{u64 probe;f64 send};"
    "resolverInfo{str agent;u64 probe;f64 echo,sample,load;u32 live,queued;str[] peers};"
    "schemaHello{u32 magic;u64 hash;u16 version};";

/// What each peer asserts about its build in the connect handshake.
constexpr std::uint64_t kSchemaHash = fnv1a64(kSchemaDefinition);

struct RegisterMsg {
  std::string serverName;
  double bwInMBps = 0.0;
  double bwOutMBps = 0.0;
  double latencyIn = 0.0;
  double latencyOut = 0.0;
  double ramMB = 0.0;
  double swapMB = 0.0;
  /// Relative compute speed (1.0 = reference machine); the agent's cost-model
  /// fallback for machines without calibrated per-type entries.
  double speedIndex = 1.0;
  std::vector<std::string> problems;
};

struct RegisterAckMsg {
  std::string serverName;
  /// False when the name is already taken by a live connection.
  bool accepted = false;
  /// Agent's simulation clock at acknowledgement; a freshly started server
  /// daemon resyncs its own paced clock to this, so completion dates and
  /// sample times stay comparable across processes started at different
  /// wall times.
  double agentTime = 0.0;
};

struct ScheduleRequestMsg {
  std::uint64_t taskId = 0;
  std::string problem;
  double inMB = 0.0;
  double outMB = 0.0;
  double memMB = 0.0;
  double refSeconds = 0.0;
};

struct ScheduleReplyMsg {
  std::uint64_t taskId = 0;
  /// Ranked list, best first (NetSolve returns a ranked server list).
  std::vector<std::string> servers;
};

struct TaskSubmitMsg {
  std::uint64_t taskId = 0;
  std::string problem;
  double inMB = 0.0;
  double cpuSeconds = 0.0;
  double outMB = 0.0;
  double memMB = 0.0;
};

struct TaskCompleteMsg {
  std::uint64_t taskId = 0;
  std::string serverName;
  double completionTime = 0.0;
  double unloadedDuration = 0.0;
};

struct TaskFailedMsg {
  std::uint64_t taskId = 0;
  std::string serverName;
  std::string reason;
};

struct LoadReportMsg {
  std::string serverName;
  double loadAverage = 0.0;
  double sampleTime = 0.0;
};

struct ServerDownMsg {
  std::string serverName;
};

struct ServerUpMsg {
  std::string serverName;
};

struct ShutdownMsg {
  std::string reason;
};

struct HeartbeatMsg {
  std::string serverName;
  /// Sender's clock at emission (sim seconds); lets the agent spot skew.
  double sampleTime = 0.0;
};

/// Agent-to-agent registration: the dialing agent introduces itself; the
/// accepting agent answers with its own hello on the same connection.
struct AgentHelloMsg {
  std::string agentName;
  double sampleTime = 0.0;
  /// Servers currently registered with (owned by) the sender.
  std::vector<std::string> ownedServers;
  /// The sender's own listening port (v4): lets the receiver of an inbound
  /// link reconstruct a dialable address for resolver gossip.
  std::uint16_t listenPort = 0;
};

/// One server's last load report, as the owning agent saw it.
struct LoadDigest {
  std::string serverName;
  double loadAverage = 0.0;
  double sampleTime = 0.0;
};

/// Periodic agent-to-agent state sync: digests of the sender's own servers'
/// load reports, plus (replicated mode) one chunk of the sender's serialized
/// HTM snapshot. chunkCount == 0 means "no snapshot in this sync"; otherwise
/// the receiver reassembles chunks [0, chunkCount) of the same snapshotSeq
/// and decodes the concatenation (core/htm_snapshot.hpp).
struct AgentSyncMsg {
  std::string agentName;
  double sampleTime = 0.0;
  std::vector<LoadDigest> loads;
  std::uint64_t snapshotSeq = 0;
  std::uint32_t chunkIndex = 0;
  std::uint32_t chunkCount = 0;
  Bytes snapshotChunk;
  /// Tasks the sender accepted but has not dispatched yet (v4): the mesh's
  /// work-stealing target signal - idle peers steal from the deepest queue.
  std::uint32_t queuedTasks = 0;
};

/// Operator request for the agent's metrics registry; additive to protocol
/// v3 (older peers never send it, and the agent ignores unknown senders'
/// other traffic as usual). `format` is "prometheus" or "json".
struct StatsRequestMsg {
  std::string format = "prometheus";
};

struct StatsReplyMsg {
  std::string agentName;
  /// Agent's simulation clock when the snapshot was taken.
  double sampleTime = 0.0;
  /// "prometheus" | "json" - the format actually rendered.
  std::string format;
  /// The rendered registry snapshot.
  std::string body;
};

/// Agent-to-agent request forwarding (v4): a saturated agent hands a client's
/// schedule request to a peer. `task` is the original request verbatim;
/// `originAgent` names the first agent that accepted it (terminal outcomes
/// travel back along the forwarding link); `hops` counts agent-to-agent
/// transfers so far, so a hop limit can stop ping-pong.
struct ForwardRequestMsg {
  ScheduleRequestMsg task;
  std::string originAgent;
  std::uint32_t hops = 1;
};

/// Peer's refusal of a forwarded task; the origin falls back to its own
/// no-server handling (retry or client-facing deny).
struct ForwardDenyMsg {
  std::uint64_t taskId = 0;
  std::string agentName;
  std::string reason;
};

/// Agent-to-client refusal of a schedule request (v4): sent instead of
/// silence when the agent has no feasible server and no peer to forward to,
/// so the client fails fast instead of timing out.
struct ScheduleDenyMsg {
  std::uint64_t taskId = 0;
  std::string agentName;
  std::string reason;
};

/// Idle agent's pull request (v4): "hand me up to `capacity` parked tasks".
struct StealRequestMsg {
  std::string agentName;
  std::uint32_t capacity = 0;
};

/// The loaded peer's reply: parked tasks now owned by the thief. `tasks` may
/// be empty (nothing was parked by the time the request arrived).
struct StealGrantMsg {
  std::string agentName;
  std::vector<ScheduleRequestMsg> tasks;
};

/// Client-side resolver probe (v4): `sendTime` is the client's wall clock at
/// emission, echoed back verbatim so the client measures RTT without shared
/// clocks. `probeId` matches replies to probes across re-ranks.
struct ResolverProbeMsg {
  std::uint64_t probeId = 0;
  double sendTime = 0.0;
};

/// Agent's answer to a resolver probe: identity, echoed timestamp, advertised
/// load and capacity, plus gossip - dialable "host:port" addresses of the
/// agent's own peers, so a client discovers agents it was never configured
/// with.
struct ResolverInfoMsg {
  std::string agentName;
  std::uint64_t probeId = 0;
  double echoSendTime = 0.0;
  /// Agent's simulation clock when the reply was built.
  double sampleTime = 0.0;
  /// Mean corrected load estimate across the agent's live servers.
  double meanLoad = 0.0;
  std::uint32_t liveServers = 0;
  std::uint32_t queuedTasks = 0;
  std::vector<std::string> peerAddresses;
};

/// First frame on every connection, both directions (v5): the transport layer
/// sends it automatically on connect/accept, verifies the peer's copy, and
/// swallows it - daemons never see handshake frames. A wrong magic or hash is
/// rejected with a named schema-mismatch error before any other frame is
/// decoded.
struct SchemaHelloMsg {
  std::uint32_t magic = kWireMagic;
  std::uint64_t schemaHash = kSchemaHash;
  std::uint16_t protocolVersion = kProtocolVersion;
};

// Encoding: each message encodes its payload; the framing layer prepends
// (length, version, type) and appends the CRC32 trailer.
Bytes encode(const RegisterMsg& m);
Bytes encode(const RegisterAckMsg& m);
Bytes encode(const ScheduleRequestMsg& m);
Bytes encode(const ScheduleReplyMsg& m);
Bytes encode(const TaskSubmitMsg& m);
Bytes encode(const TaskCompleteMsg& m);
Bytes encode(const TaskFailedMsg& m);
Bytes encode(const LoadReportMsg& m);
Bytes encode(const ServerDownMsg& m);
Bytes encode(const ServerUpMsg& m);
Bytes encode(const ShutdownMsg& m);
Bytes encode(const HeartbeatMsg& m);
Bytes encode(const AgentHelloMsg& m);
Bytes encode(const AgentSyncMsg& m);
Bytes encode(const StatsRequestMsg& m);
Bytes encode(const StatsReplyMsg& m);
Bytes encode(const ForwardRequestMsg& m);
Bytes encode(const ForwardDenyMsg& m);
Bytes encode(const ScheduleDenyMsg& m);
Bytes encode(const StealRequestMsg& m);
Bytes encode(const StealGrantMsg& m);
Bytes encode(const ResolverProbeMsg& m);
Bytes encode(const ResolverInfoMsg& m);
Bytes encode(const SchemaHelloMsg& m);

RegisterMsg decodeRegister(const Bytes& payload);
RegisterAckMsg decodeRegisterAck(const Bytes& payload);
ScheduleRequestMsg decodeScheduleRequest(const Bytes& payload);
ScheduleReplyMsg decodeScheduleReply(const Bytes& payload);
TaskSubmitMsg decodeTaskSubmit(const Bytes& payload);
TaskCompleteMsg decodeTaskComplete(const Bytes& payload);
TaskFailedMsg decodeTaskFailed(const Bytes& payload);
LoadReportMsg decodeLoadReport(const Bytes& payload);
ServerDownMsg decodeServerDown(const Bytes& payload);
ServerUpMsg decodeServerUp(const Bytes& payload);
ShutdownMsg decodeShutdown(const Bytes& payload);
HeartbeatMsg decodeHeartbeat(const Bytes& payload);
AgentHelloMsg decodeAgentHello(const Bytes& payload);
AgentSyncMsg decodeAgentSync(const Bytes& payload);
StatsRequestMsg decodeStatsRequest(const Bytes& payload);
StatsReplyMsg decodeStatsReply(const Bytes& payload);
ForwardRequestMsg decodeForwardRequest(const Bytes& payload);
ForwardDenyMsg decodeForwardDeny(const Bytes& payload);
ScheduleDenyMsg decodeScheduleDeny(const Bytes& payload);
StealRequestMsg decodeStealRequest(const Bytes& payload);
StealGrantMsg decodeStealGrant(const Bytes& payload);
ResolverProbeMsg decodeResolverProbe(const Bytes& payload);
ResolverInfoMsg decodeResolverInfo(const Bytes& payload);
SchemaHelloMsg decodeSchemaHello(const Bytes& payload);

}  // namespace casched::wire
