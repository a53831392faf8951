#pragma once
/// \file system.hpp
/// The simulated system: builds the simulator, machines, server daemons and
/// agents for one experiment, submits the metatask the way the paper's client
/// does, runs it to completion, and returns the metrics-ready RunResult.
///
/// The paper's model is its one-node case: one agent owning every server.
/// A scenario with an enabled [mesh] section adds agent nodes, each owning a
/// rack of the testbed's servers and driving one mesh::AgentNode (request
/// forwarding to the least-loaded peer, work-stealing off parked queues, flat
/// or tree topologies), and turns its decisions into simulator events: a
/// forward or deny lands one control latency later, a steal request within
/// the sweep, granted tasks two latencies later. The live daemons drive the
/// same AgentNode over TCP; both agree on completed/lost counts per seed.
/// Every experiment entry point (suite, scenario runner, live comparison)
/// runs through runExperimentSystem.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cas/agent.hpp"
#include "cas/churn.hpp"
#include "cas/server_daemon.hpp"
#include "mesh/agent_node.hpp"
#include "metrics/record.hpp"
#include "platform/testbed.hpp"
#include "psched/noise.hpp"
#include "scenario/spec.hpp"
#include "workload/metatask.hpp"

namespace casched::cas {

struct SystemConfig {
  /// Load-report period (NetSolve workload manager).
  double reportPeriod = 30.0;
  /// One-way control-message latency; <0 means "use the testbed's value".
  double controlLatency = -1.0;
  /// NetSolve-MCT-style fault tolerance (re-submission of failed tasks).
  bool faultTolerance = false;
  int maxRetries = 5;
  core::SyncPolicy htmSync = core::SyncPolicy::kDropOnNotice;
  /// Ground-truth variability (paper's shared laboratory testbed).
  psched::NoiseConfig cpuNoise;
  psched::NoiseConfig linkNoise;
  std::uint64_t noiseSeed = 99;
  /// Scheduler RNG seed (random baseline only).
  std::uint64_t schedulerSeed = 7;
  /// Hard stop: no experiment should ever reach this.
  double horizon = 5.0e6;
};

/// Owns every simulation object of one experiment run.
class GridSystem {
 public:
  /// The paper's system: one agent owning every testbed server.
  GridSystem(const platform::Testbed& testbed, const workload::Metatask& metatask,
             const std::string& schedulerName, const SystemConfig& config);

  /// With an enabled `mesh`, `agents.count` agent nodes own the mesh's racks
  /// (expects compileScenario's [mesh] checks: >= 2 agents, total disjoint
  /// rack coverage, tree root owning no rack, no churn). Otherwise the same
  /// single agent as above: the simulator runs [agents] replicas as one.
  GridSystem(const platform::Testbed& testbed, const workload::Metatask& metatask,
             const std::string& schedulerName, const SystemConfig& config,
             const scenario::AgentsSpec& agents, const scenario::MeshSpec& mesh);

  GridSystem(const GridSystem&) = delete;
  GridSystem& operator=(const GridSystem&) = delete;

  /// Registers membership events to fire during run(). Single agent only;
  /// call before run(). Events beyond the end of the run never fire.
  void setChurnTimeline(std::vector<ChurnEvent> events);

  /// Runs to completion (all tasks terminal) and builds the result. A mesh
  /// result carries the forward/steal/deny accounting and covers every
  /// metatask entry (denied or never-stolen tasks appear as kLost outcomes).
  metrics::RunResult run();

  /// The first node's agent (the only one outside a mesh).
  Agent& agent() { return *nodes_.front().agent; }
  simcore::Simulator& simulator() { return sim_; }

 private:
  /// One agent + the server daemons it owns + its mesh node (mesh only).
  struct Node {
    std::unique_ptr<Agent> agent;
    std::vector<std::unique_ptr<ServerDaemon>> daemons;
    std::optional<mesh::AgentNode> mesh;
  };

  void addServer(Node& node, const psched::MachineSpec& spec);
  ServerDaemon& daemon(const std::string& name);
  void applyChurn(const ChurnEvent& event);
  void submitMetatask();
  void onRequest(std::size_t self, const workload::TaskInstance& task,
                 std::uint32_t hops, const std::string& fromAgent);
  void onForwardDenied(std::size_t self, std::uint64_t taskId);
  void deny(Node& node, const workload::TaskInstance& task, const std::string& fromAgent);
  std::vector<mesh::PeerDigest> peerDigests(std::size_t self) const;
  std::size_t nodeIndex(const std::string& name) const;
  void stealTick();
  void relayTerminal(std::size_t self, std::uint64_t taskId);
  void onTerminal();
  metrics::RunResult buildResult();

  simcore::Simulator sim_;
  const workload::Metatask metatask_;
  std::string schedulerName_;
  SystemConfig config_;
  scenario::MeshSpec mesh_;
  /// Sized once in the constructor; never grows (observers hold indices).
  std::vector<Node> nodes_;
  /// Tasks denied by the router: terminal without ever reaching an agent.
  std::vector<metrics::TaskOutcome> denied_;
  std::vector<ChurnEvent> timeline_;
  metrics::ChurnSummary churnStats_;
  std::size_t terminal_ = 0;
  std::uint64_t nextNoiseStream_ = 0;  ///< per-server noise-seed derivation
};

/// One-shot: build + run. With an enabled `mesh` the run is the multi-agent
/// mesh; `churn` applies to the single agent only.
metrics::RunResult runExperimentSystem(const platform::Testbed& testbed,
                                       const workload::Metatask& metatask,
                                       const std::string& schedulerName,
                                       const SystemConfig& config,
                                       std::vector<ChurnEvent> churn = {},
                                       const scenario::AgentsSpec& agents = {},
                                       const scenario::MeshSpec& mesh = {});

}  // namespace casched::cas
