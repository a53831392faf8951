#pragma once
/// \file client_driver.hpp
/// The live client: replays a metatask against one or more running agent
/// daemons, one kScheduleRequest per task at its (wall-paced) arrival date,
/// and collects the terminal notices the agents relay back. This is the
/// paper's "submission of a metatask composed of independent tasks to the
/// agent", driven over real sockets - scenario specs compile to metatasks, so
/// any registry scenario can be replayed against a live deployment.
///
/// Multi-agent deployments: with several `agentPorts` the driver keeps one
/// connection per agent. In replicated mode every task goes to the first
/// live agent; with `roundRobin` (partitioned mode) tasks spread across the
/// live agents. When a connection dies the driver re-dials it and re-submits
/// every non-terminal task it had sent there to another live agent - under a
/// fresh wire id, so the re-submission can never collide with an orphaned
/// copy still running somewhere (the agent side rejects id reuse, and the
/// HTM trace must not see two tasks with one id).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics/record.hpp"
#include "net/clock.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"
#include "workload/metatask.hpp"

namespace casched::net {

struct ClientConfig {
  std::string agentHost = "127.0.0.1";
  std::uint16_t agentPort = 0;
  /// Multi-agent deployment: one connection per entry; overrides agentPort
  /// when non-empty. Order matters - the first live entry is "primary".
  std::vector<std::uint16_t> agentPorts;
  /// Distribute tasks round-robin over live agents (partitioned mode)
  /// instead of sending everything to the first live one (replicated mode).
  bool roundRobin = false;
  /// Simulated seconds between re-dial attempts of a dead connection.
  double redialPeriod = 5.0;
  /// Simulated seconds before a denied task is retried on another agent
  /// (backoff - an immediate resend would spin deny/resend at wire speed).
  double denyRetryDelay = 1.0;
  /// Simulated seconds after a task's first deny before the client stops
  /// retrying and fails the task. Sized to outlast a registry migration
  /// (agents deny while a crashed peer's servers re-register with them);
  /// when no agent ever has servers, this bounds the run instead of the
  /// wall timeout.
  double denyGraceSeconds = 120.0;

  // --- dynamic resolver (protocol v4, opt-in) ---
  /// Probe every live agent each `probePeriod`, learn agents it was never
  /// configured with from gossip (kResolverInfo peerAddresses), and send each
  /// task to the best-ranked live agent - rank = RTT + loadWeight * advertised
  /// mean load - instead of the static round-robin / sticky-primary policy.
  bool resolver = false;
  /// Simulated seconds between probe rounds.
  double probePeriod = 5.0;
  /// Weight of the advertised mean load against the probe RTT (in simulated
  /// seconds) when ranking endpoints.
  double loadWeight = 1.0;
};

/// What the client learned about one task from the agents' relays.
struct ClientOutcome {
  bool completed = false;
  std::string server;
  double completionTime = -1.0;
};

class ClientDriver {
 public:
  ClientDriver(ClientConfig config, PacedClock clock);

  ClientDriver(const ClientDriver&) = delete;
  ClientDriver& operator=(const ClientDriver&) = delete;

  /// Dials every configured agent; throws util::IoError when none is
  /// reachable (unreachable ones are retried during the run).
  void connect();

  /// Begins replaying `metatask` (tasks must be sorted by arrival).
  void start(const workload::Metatask& metatask);

  /// One event-loop turn: re-dial dead links, send every arrival now due,
  /// re-submit failed-over tasks, drain terminal notices. Non-blocking.
  void runOnce();

  /// Blocking replay for the CLI process: runOnce() turns separated by a
  /// TurnWaiter wait (turn_wait.hpp) until every task is terminal, `stop`
  /// becomes true, or `wallTimeoutSeconds` elapses.
  /// Returns true when all tasks finished.
  bool run(const workload::Metatask& metatask, double wallTimeoutSeconds,
           const std::atomic<bool>& stop);

  bool done() const { return started_ && terminal_.size() == total_; }
  std::size_t submitted() const { return nextToSend_; }
  std::size_t completedCount() const { return completed_; }
  std::size_t failedCount() const { return terminal_.size() - completed_; }
  /// Keyed by the task's metatask index (failover re-submissions fold back).
  const std::map<std::uint64_t, ClientOutcome>& outcomes() const { return terminal_; }
  /// Tasks re-submitted to another agent after their connection died.
  std::uint64_t failoverResubmissions() const { return failovers_; }
  /// kScheduleDeny notices received (agent had no servers / no mesh rescue).
  std::uint64_t scheduleDenies() const { return denies_; }
  std::size_t liveAgentCount() const;

  /// What the dynamic resolver has done so far (all zero when disabled).
  struct ResolverStats {
    std::uint64_t probes = 0;   ///< kResolverProbe frames sent
    std::uint64_t infos = 0;    ///< kResolverInfo replies digested
    std::uint64_t reranks = 0;  ///< times the best-ranked agent changed
    std::uint64_t learnedPeers = 0;  ///< links added from gossip addresses
  };
  const ResolverStats& resolverStats() const { return resolverStats_; }
  /// Index into the configured+learned link list of the currently best-ranked
  /// live agent, or the link count when no probe reply has arrived yet.
  std::size_t bestRankedLink() const;

 private:
  struct AgentLink {
    std::uint16_t port = 0;
    std::shared_ptr<wire::TcpTransport> transport;
    double nextRedialAt = 0.0;
    // --- resolver state (latest probe reply) ---
    double rttSeconds = 0.0;
    double meanLoad = 0.0;
    std::uint32_t liveServers = 0;
    std::uint64_t infosReceived = 0;
  };

  void handleFrame(const wire::Frame& frame);
  void maybeProbe(double now);
  void onResolverInfo(const wire::ResolverInfoMsg& msg);
  bool dialLink(AgentLink& link);
  /// Sends metatask position `pos` under `wireId` on some live link; false
  /// when no link is live.
  bool sendTask(std::size_t pos, std::uint64_t wireId);

  ClientConfig config_;
  PacedClock clock_;
  std::vector<AgentLink> links_;
  workload::Metatask metatask_;
  bool started_ = false;
  std::size_t total_ = 0;
  std::size_t nextToSend_ = 0;  ///< doubles as the submitted count
  std::size_t completed_ = 0;
  std::size_t rrNext_ = 0;      ///< round-robin cursor over live links
  std::size_t primary_ = 0;     ///< sticky primary cursor (replicated mode)
  std::uint64_t failovers_ = 0;
  /// Fresh ids for failover re-submissions, far above any metatask index.
  std::uint64_t nextFailoverId_ = 1ull << 32;
  /// wire id -> metatask position, for every submission ever sent.
  std::map<std::uint64_t, std::size_t> wireToPos_;
  /// wire id -> index into links_, for submissions not yet terminal.
  std::map<std::uint64_t, std::size_t> inFlightLink_;
  /// Metatask positions whose submission died with its link; re-sent (under
  /// a fresh wire id) as soon as a live link exists.
  std::vector<std::size_t> resend_;
  std::map<std::uint64_t, ClientOutcome> terminal_;  ///< by metatask index
  std::uint64_t denies_ = 0;
  /// Metatask index -> sim time of the task's first deny: the retry budget
  /// anchor for denyGraceSeconds.
  std::map<std::uint64_t, double> denyFirstAt_;
  /// Denied tasks waiting out the retry backoff: {position, earliest resend}.
  std::vector<std::pair<std::size_t, double>> deniedRetry_;

  // --- resolver state ---
  ResolverStats resolverStats_;
  double nextProbeAt_ = 0.0;
  std::uint64_t nextProbeId_ = 1;
  /// probe id -> link index for the round in flight (cleared each round).
  std::map<std::uint64_t, std::size_t> probeLinks_;
  static constexpr std::size_t kNoBest = static_cast<std::size_t>(-1);
  std::size_t lastBest_ = kNoBest;  ///< rerank detection cursor
};

}  // namespace casched::net
