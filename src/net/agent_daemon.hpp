#pragma once
/// \file agent_daemon.hpp
/// The live agent process: a TCP event loop multiplexing wire-protocol
/// connections onto the existing cas::Agent scheduling core. Servers connect
/// and register (kRegister), stream load reports and heartbeats, and notify
/// completions/failures; clients connect and submit kScheduleRequest per
/// task. All requests that arrive within one poll cycle are drained into a
/// single Agent::scheduleBatch call - one HTM refresh amortized over the
/// whole burst, with placements identical to scheduling them one at a time
/// (locked by the batch equivalence test). The agent forwards each accepted
/// task to the chosen server as a kTaskSubmit over the agent->server
/// connection (agent-mediated submission, exactly the simulated submission
/// path) and relays terminal outcomes back to the requesting client.
///
/// Liveness: any frame from a server refreshes its deadline; a server silent
/// for `heartbeatTimeout` simulated seconds is retired through the agent's
/// deregisterServer path (its HTM row is dropped, it never receives work
/// again). A transport disconnect is an immediate kServerDown; a reconnect
/// re-registers, reviving a retired row when the deadline already passed.
///
/// Replication (protocol v3): the daemon can peer with other agents. It dials
/// the configured `peers` (re-dialing dropped links), accepts inbound peers
/// identifying with kAgentHello, and every `syncPeriod` simulated seconds
/// sends each of them a kAgentSync - load digests of its own servers plus its
/// serialized HTM snapshot in chunks - and writes the same snapshot to
/// `snapshotPath`. Received digests build a registry view of peer-owned
/// servers; received snapshots warm rows for servers not registered here, so
/// a replica (or a restarted agent booting from its snapshot file) starts
/// with warm predictions the moment those servers fail over to it.
///
/// Mesh (protocol v4): requests go through a mesh::AgentNode, the mesh
/// bookkeeping the simulator runs too; the daemon turns its decisions into
/// frames. Only the deferred-route retry is live-only: digests arrive up to
/// a sync period late, so a request no peer can take yet is retried until
/// the heartbeat timeout before it is denied.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cas/agent.hpp"
#include "core/htm.hpp"
#include "mesh/agent_node.hpp"
#include "net/clock.hpp"
#include "platform/calibration.hpp"
#include "simcore/engine.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"

namespace casched::net {

struct AgentDaemonConfig {
  /// Listening port on 127.0.0.1; 0 picks a free port (see port()).
  std::uint16_t port = 0;
  std::string heuristic = "msf";
  /// One-way control latency the scheduling core assumes for the submission
  /// path (the real network supplies the actual delay).
  double controlLatency = 0.005;
  bool faultTolerance = false;
  int maxRetries = 5;
  double noServerRetryDelay = 10.0;
  core::SyncPolicy htmSync = core::SyncPolicy::kDropOnNotice;
  /// Simulated seconds without any message from a registered server before
  /// its HTM row is retired via Agent::deregisterServer.
  double heartbeatTimeout = 90.0;
  std::uint64_t schedulerSeed = 7;
  /// Static cost database handed to the agent (the paper's calibrated
  /// Tables 3-4 when available); servers without entries fall back to
  /// refSeconds / speedIndex from their registration.
  platform::CostModel costs;

  // --- replication (multi-agent deployments) ---
  /// Name announced in kAgentHello; must be unique across the deployment.
  std::string agentName = "agent-0";
  /// Peer agents to dial, as "host:port". Dropped links are re-dialed every
  /// `peerRedialPeriod`; peers may also dial in (kAgentHello identifies them).
  std::vector<std::string> peers;
  double peerRedialPeriod = 5.0;
  /// Simulated seconds between kAgentSync broadcasts (and snapshot file
  /// saves); <= 0 disables both.
  double syncPeriod = 5.0;
  /// HTM snapshot file: loaded (if present) at construction for a warm
  /// start, rewritten every sync period. Empty disables persistence.
  std::string snapshotPath;

  // --- mesh (protocol v4: request forwarding / work stealing) ---
  /// With `mesh.enabled`, schedule requests are routed (local / forward /
  /// park / deny) by the daemon's mesh::AgentNode before the scheduling core
  /// sees them, kForwardRequest and kSteal* frames are honoured, and syncs
  /// advertise the parked-queue depth.
  mesh::MeshConfig mesh;
};

/// The wire form of a task and back: a request's problem name and sizes
/// become a synthetic task type (util::Error on negative sizes).
workload::TaskInstance taskFromRequest(const wire::ScheduleRequestMsg& msg, double arrival);
wire::ScheduleRequestMsg requestFromTask(const workload::TaskInstance& task);

class AgentDaemon {
 public:
  AgentDaemon(AgentDaemonConfig config, PacedClock clock);
  ~AgentDaemon();

  AgentDaemon(const AgentDaemon&) = delete;
  AgentDaemon& operator=(const AgentDaemon&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// One event-loop turn: accept new connections, advance the paced clock,
  /// drain every transport, apply heartbeat deadlines. Non-blocking.
  void runOnce();

  /// Blocking loop for the CLI process: runOnce() turns separated by a
  /// TurnWaiter wait (turn_wait.hpp); returns when `stop` becomes true or a
  /// client sends kShutdown.
  void run(const std::atomic<bool>& stop);

  cas::Agent& agent() { return agent_; }
  const cas::Agent& agent() const { return agent_; }
  simcore::Simulator& simulator() { return sim_; }

  /// Servers currently registered and not retired.
  std::size_t liveServerCount() const;
  std::size_t retiredServerCount() const;
  bool serverRetired(const std::string& name) const;
  bool serverKnown(const std::string& name) const;

  /// True once a kShutdown frame arrived.
  bool shutdownRequested() const { return shutdownRequested_; }

  // --- replication surface ---
  const std::string& agentName() const { return config_.agentName; }
  /// Adds a peer address ("host:port") after construction; the loopback
  /// harness uses this once every agent's ephemeral port is known.
  void addPeer(const std::string& hostPort);
  /// Peer links currently connected (inbound or outbound).
  std::size_t connectedPeerCount() const;
  /// Rows adopted from the snapshot file at construction (warm start).
  std::size_t warmStartedRows() const { return warmStartedRows_; }
  /// kAgentSync frames digested so far.
  std::uint64_t syncsReceived() const { return syncsReceived_; }
  /// Distinct HTM rows ever adopted from peer snapshots (servers not
  /// registered here) - replication coverage, independent of run length.
  std::uint64_t peerRowsAdopted() const { return peerAdoptedRows_.size(); }
  /// Servers known only through peer load digests (the rest of the registry
  /// in partitioned mode).
  std::size_t knownPeerServerCount() const { return peerLoads_.size(); }

  // --- mesh surface ---
  /// Forwards sent, denies sent (kScheduleDeny / kForwardDeny), tasks taken
  /// by steal grants, and requests ever parked (cumulative).
  const metrics::MeshSummary& meshStats() const { return node_.stats(); }
  /// Per-task entries still held: the mesh node's (parked, handed off,
  /// placed for a peer), the client table and the deferred routes. Zero once
  /// every task this agent saw has been answered.
  std::size_t heldTaskEntries() const {
    return node_.entryCount() + taskClients_.size() + deferred_.size();
  }

 private:
  struct WireLink;
  struct ServerEntry {
    std::unique_ptr<WireLink> link;
    std::shared_ptr<wire::TcpTransport> transport;
    double lastSeen = 0.0;  ///< agent sim time of the last frame
    bool up = false;
    bool retired = false;
    /// Tasks that were in flight when the server announced kServerDown
    /// (leave or collapse). The down-notice clears the scheduling core's own
    /// bookkeeping, so this is the only record left; each id leaves the set
    /// with its completion/failure frame, and whatever remains when the link
    /// dies is failed on the server's behalf (fault tolerance re-submits).
    std::set<std::uint64_t> draining;
  };

  /// One agent-to-agent link: outbound entries carry the address to re-dial;
  /// inbound entries (address empty) are pruned once their transport dies.
  struct PeerEntry {
    std::string address;  ///< "host:port" for outbound dials; "" when inbound
    std::string name;     ///< peer's agentName once its hello arrived
    std::shared_ptr<wire::TcpTransport> transport;
    bool helloSent = false;
    double nextDialAt = 0.0;
    /// "host:port" the peer listens on (from its hello) - what the resolver
    /// gossips to clients; empty until the hello arrives or when unknown.
    std::string listenAddress;
    /// Last kAgentSync digest, summarized for the mesh router.
    bool digestSeen = false;
    double meanLoad = 0.0;
    std::uint32_t liveServers = 0;
    std::uint32_t queuedTasks = 0;
    /// Snapshot chunk reassembly state.
    std::uint64_t snapshotSeq = 0;
    std::uint32_t chunkCount = 0;
    std::uint32_t chunksReceived = 0;
    std::vector<wire::Bytes> chunks;
  };

  void acceptPending();
  void pollTransports();
  /// Handles every frame `transport` has buffered; a bad frame closes it.
  /// Holds its own reference: handlers may move or drop the caller's.
  void drainLink(std::shared_ptr<wire::TcpTransport> transport, const char* what);
  void applyDeadlines();
  bool otherLiveLinkTo(const PeerEntry& peer) const;
  void pollPeers();
  void maybeSync();
  /// Calls `fn` on every link's transport (null for a dropped one).
  template <class Fn>
  void forEachLink(Fn&& fn);
  /// Flushes every link's queued outbound traffic (end of each poll cycle);
  /// each link's frames leave in one write.
  void flushAllQueued();
  void sendHello(PeerEntry& peer);
  void onAgentHello(const std::shared_ptr<wire::TcpTransport>& transport,
                    const wire::AgentHelloMsg& msg);
  void onAgentSync(const std::shared_ptr<wire::TcpTransport>& transport,
                   const wire::AgentSyncMsg& msg);
  void handleFrame(const std::shared_ptr<wire::TcpTransport>& transport,
                   const wire::Frame& frame);
  /// A pending connection identified itself as a client (or an operator):
  /// the never-identified timeout no longer applies to it.
  void adoptClient(const std::shared_ptr<wire::TcpTransport>& transport);
  void onRegister(const std::shared_ptr<wire::TcpTransport>& transport,
                  const wire::RegisterMsg& msg);
  void onScheduleRequest(const std::shared_ptr<wire::TcpTransport>& transport,
                         const wire::ScheduleRequestMsg& msg);
  /// Routes a validated request through the mesh node and carries out the
  /// decision: batch it here, send the forward, leave it parked, defer it
  /// (no digests yet), or deny it. `fromAgent` is empty for client
  /// submissions and names the peer for kForwardRequest arrivals.
  void routeRequest(const std::shared_ptr<wire::TcpTransport>& requester,
                    const workload::TaskInstance& task, std::uint32_t hops,
                    const std::string& fromAgent, double firstSeen);
  void denyRequest(const std::shared_ptr<wire::TcpTransport>& requester,
                   std::uint64_t taskId, const std::string& fromAgent,
                   const std::string& reason);
  /// A client or peer already waits on `taskId` here, or the scheduling core
  /// has seen it: a second copy would overwrite the first's client entry.
  bool idInUse(std::uint64_t taskId) const;
  void retryDeferredRoutes();
  void maybeSteal();
  std::vector<mesh::PeerDigest> peerDigests() const;
  void flushScheduleBatch();
  void markServerDown(const std::string& name);
  void failAbandonedTasks(const std::string& name);
  void sendSubmit(const std::string& server, std::uint64_t taskId,
                  const psched::ExecRequest& request);
  void relayTerminal(const metrics::TaskOutcome& outcome);
  /// Sends a terminal frame to whoever asked for `taskId` here; forgets them.
  void relayToRequester(std::uint64_t taskId, wire::MessageType type,
                        const wire::Bytes& payload);

  AgentDaemonConfig config_;
  PacedClock clock_;
  wire::TcpListener listener_;
  simcore::Simulator sim_;
  cas::Agent agent_;
  /// Connections that have not yet identified themselves (first frame tells
  /// servers from clients apart), with the sim time they were accepted;
  /// one that stays mute past the heartbeat timeout is dropped so idle
  /// sockets cannot pile up in a long-lived daemon.
  std::vector<std::pair<std::shared_ptr<wire::TcpTransport>, double>> pending_;
  std::map<std::string, ServerEntry> servers_;
  std::vector<std::shared_ptr<wire::TcpTransport>> clients_;
  /// Which client asked for which task (terminal outcomes go back there).
  std::map<std::uint64_t, std::weak_ptr<wire::TcpTransport>> taskClients_;
  /// Requests validated this poll cycle, awaiting the cycle's single
  /// scheduleBatch call (capacity reused across cycles).
  std::vector<workload::TaskInstance> scheduleBatch_;
  bool shutdownRequested_ = false;

  // --- replication state ---
  std::vector<PeerEntry> peers_;
  double nextSyncAt_ = 0.0;
  std::uint64_t snapshotSeq_ = 0;
  /// Last load digest per peer-owned server (not registered here).
  std::map<std::string, wire::LoadDigest> peerLoads_;
  /// Distinct server names whose rows were adopted from peer snapshots.
  std::set<std::string> peerAdoptedRows_;
  std::size_t warmStartedRows_ = 0;
  std::uint64_t syncsReceived_ = 0;

  // --- mesh state ---
  mesh::AgentNode node_;
  /// Requests that could not be routed yet (no peer digest seen, typically
  /// the startup race before the first sync round); retried every poll cycle
  /// until the heartbeat timeout, then denied.
  struct DeferredRoute {  ///< the requester stays in taskClients_
    workload::TaskInstance task;
    std::uint32_t hops = 0;
    std::string fromAgent;
    double firstSeen = 0.0;
  };
  std::vector<DeferredRoute> deferred_;
  double nextStealAt_ = 0.0;
};

}  // namespace casched::net
