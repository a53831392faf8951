#pragma once
/// \file loopback.hpp
/// In-process distributed deployment over real TCP loopback sockets: one or
/// more AgentDaemons, one NetServerDaemon per testbed server, one
/// ClientDriver replaying the compiled scenario metatask - all pumped
/// cooperatively from the calling thread, every byte travelling through the
/// kernel's loopback stack. The scenario's churn timeline is applied as
/// *live* membership events (leave = down-notice + drain + missed
/// heartbeats, crash = machine collapse over the wire, join = a new daemon
/// dialing in mid-run), so the same registry entry runs in the simulator and
/// against real sockets, and their completed/lost/resubmitted counts can be
/// compared directly.
///
/// A scenario with an [agents] section deploys `count` peered agents
/// (protocol v3 hello + sync). In replicated mode every server and the
/// client home on the first agent and fail over down the list; in
/// partitioned mode server i homes on agent i % count and the client spreads
/// tasks round-robin. Agent crash events destroy a daemon mid-run; servers
/// and client fail over to the survivors (which adopted the crashed agent's
/// HTM rows from kAgentSync snapshots), or to the restarted daemon, which
/// warm-starts from its last snapshot file.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/record.hpp"
#include "scenario/faults.hpp"
#include "scenario/spec.hpp"

namespace casched::net {

struct LiveRunOptions {
  std::string heuristic = "msf";
  /// Simulated seconds per wall second (the pacing compression).
  double timeScale = 200.0;
  std::uint64_t seed = 1;
  /// Hard wall-clock stop; the report is marked timedOut when hit.
  double wallTimeoutSeconds = 60.0;
  /// Agent's missed-report deadline, simulated seconds; <= 0 derives
  /// max(3 * reportPeriod, 10 wall seconds * timeScale) - the wall floor
  /// keeps a pump stall on a loaded machine from retiring healthy servers.
  double heartbeatTimeout = 0.0;
  /// Server heartbeat period, simulated seconds.
  double heartbeatPeriod = 5.0;
  /// Optional external stop signal (e.g. a SIGINT flag); the run winds down
  /// at the next pump turn when it becomes true.
  const std::atomic<bool>* stopFlag = nullptr;
  /// Where multi-agent runs keep their HTM snapshot files (one per agent);
  /// empty uses a unique directory under the system temp dir, removed when
  /// the run ends.
  std::string snapshotDir;
};

/// One agent daemon's share of a multi-agent run (scheduler-side counts over
/// every incarnation of that agent, crashed ones included).
struct AgentShare {
  std::string name;
  std::size_t tasks = 0;  ///< schedule requests this agent accepted
  std::size_t completed = 0;
  std::size_t lost = 0;
  std::uint64_t resubmissions = 0;
};

/// Outcome of one live loopback run; mirrors the simulator's RunResult
/// closely enough for count-level comparison.
struct LiveRunReport {
  std::string scenario;
  std::string heuristic;
  double timeScale = 1.0;
  std::size_t tasks = 0;
  std::size_t completed = 0;
  std::size_t lost = 0;
  /// Extra scheduling attempts past each task's first (fault tolerance).
  std::uint64_t resubmissions = 0;
  metrics::ChurnSummary churnApplied;
  /// Events in the compiled timeline that the [faults] processes generated.
  std::size_t generatedChurn = 0;
  /// Dispatched events whose target daemon could not be found (a live-side
  /// divergence from the compiled timeline; compile-time validation makes
  /// this impossible short of a harness bug). The nightly gate and the
  /// net_test agreement test require 0.
  std::uint64_t churnSkipped = 0;
  /// FNV digest folded over the churn sequence this harness iterated, in
  /// dispatch order (the undispatched tail folded in at the end). Equality
  /// with churnTimelineDigest of a simulator-side compilation proves both
  /// sides replay one identical generated stream in one canonical order;
  /// events dropped at apply time are flagged by `churnSkipped`, not here.
  std::uint64_t churnDigest = 0;
  /// Per-seed summary of the compiled timeline (crash count, mean downtime,
  /// peak concurrently-dead servers/domains).
  scenario::ChurnTimelineSummary churnPlanned;
  std::size_t serversStarted = 0;
  std::size_t serversRetired = 0;
  double wallSeconds = 0.0;
  double simEndTime = 0.0;
  bool timedOut = false;
  std::vector<metrics::TaskOutcome> outcomes;  ///< agent-side, by task index

  // --- multi-agent deployments ([agents] section) ---
  std::size_t agentsDeployed = 1;
  std::string agentMode = "replicated";
  std::uint64_t agentCrashes = 0;
  std::uint64_t agentRestarts = 0;
  /// HTM rows restarted agents adopted from their snapshot files.
  std::size_t warmStartRows = 0;
  /// kAgentSync frames digested across the surviving agent incarnations.
  std::uint64_t peerSyncs = 0;
  /// HTM rows adopted from peer snapshots (replica warm-starts).
  std::uint64_t peerRowsAdopted = 0;
  /// Tasks the client re-submitted to another agent after a link died.
  std::uint64_t clientFailovers = 0;
  std::vector<AgentShare> perAgent;

  // --- mesh deployments ([mesh] section) ---
  /// Forwards (kForwardRequest), client- or peer-facing denies
  /// (kScheduleDeny / kForwardDeny), tasks taken by steal grants, and
  /// requests ever parked, summed over the surviving agents.
  metrics::MeshSummary mesh;
  /// Per-task entries the surviving agents still held when the run ended
  /// (AgentDaemon::heldTaskEntries); 0 once every answer has been relayed.
  std::size_t heldTaskEntries = 0;
  /// kScheduleDeny notices the client received.
  std::uint64_t clientDenies = 0;
};

/// Extra attempts past the first across a run's outcomes - the common
/// resubmission count for live reports and simulator RunResults.
std::uint64_t countResubmissions(const std::vector<metrics::TaskOutcome>& outcomes);

/// Runs one scenario end to end over TCP loopback: agent + one server daemon
/// per testbed entry + client, churn applied live. Blocks until every task
/// is terminal or the wall timeout expires.
LiveRunReport runLoopbackScenario(const scenario::ScenarioSpec& spec,
                                  const LiveRunOptions& options);

/// Same, for a registry entry by name.
LiveRunReport runLoopbackScenario(const std::string& registryName,
                                  const LiveRunOptions& options);

/// Machine-readable record of a live run (counts, churn, wall/sim time).
std::string liveRunJson(const LiveRunReport& report);

}  // namespace casched::net
