#include "net/loopback.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "mesh/router.hpp"
#include "net/agent_daemon.hpp"
#include "net/client_driver.hpp"
#include "net/server_daemon.hpp"
#include "scenario/generate.hpp"
#include "scenario/registry.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace casched::net {

namespace {

NetServerConfig serverConfig(const psched::MachineSpec& spec, double speedIndex,
                             std::vector<std::uint16_t> agentPorts,
                             const cas::SystemConfig& system, double heartbeatPeriod) {
  NetServerConfig config;
  config.agentPorts = std::move(agentPorts);
  config.agentPort = config.agentPorts.front();
  config.machine = spec;
  config.speedIndex = speedIndex;
  config.reportPeriod = system.reportPeriod;
  config.heartbeatPeriod = heartbeatPeriod;
  return config;
}

/// Derived missed-report deadline: generous against the report period AND
/// against pump stalls. The daemons here share one cooperative thread, so the
/// deadline must exceed any plausible OS scheduling hiccup in *wall* terms
/// (10 s) or a loaded CI runner would spuriously retire healthy servers
/// mid-run and the resulting resubmissions would break exact-count agreement
/// with the simulator. Pass an explicit heartbeatTimeout to test retirement.
double deriveHeartbeatTimeout(const scenario::CompiledScenario& compiled,
                              const LiveRunOptions& options) {
  return options.heartbeatTimeout > 0.0
             ? options.heartbeatTimeout
             : std::max(3.0 * compiled.system.reportPeriod, 10.0 * options.timeScale);
}

AgentDaemonConfig baseAgentConfig(const scenario::CompiledScenario& compiled,
                                  const LiveRunOptions& options) {
  AgentDaemonConfig config;
  config.port = 0;
  config.heuristic = options.heuristic;
  config.controlLatency = compiled.testbed.controlLatency;
  config.faultTolerance = compiled.system.faultTolerance;
  config.maxRetries = compiled.system.maxRetries;
  config.htmSync = compiled.system.htmSync;
  config.heartbeatTimeout = deriveHeartbeatTimeout(compiled, options);
  config.schedulerSeed = compiled.system.schedulerSeed;
  config.costs = compiled.testbed.costs;
  return config;
}

/// One agent slot of a multi-agent deployment; survives its daemon's crash
/// and carries what a restart needs (same port, same snapshot file).
struct AgentSlot {
  AgentDaemonConfig config;
  std::unique_ptr<AgentDaemon> daemon;
  std::uint16_t port = 0;
  double restartAt = -1.0;  ///< sim time of a pending restart; < 0 none
  std::vector<metrics::TaskOutcome> pastOutcomes;  ///< from crashed incarnations
  std::uint64_t pastSyncs = 0;
  std::uint64_t pastAdopted = 0;
};

void accumulateShare(AgentShare& share, const std::vector<metrics::TaskOutcome>& outcomes) {
  share.tasks += outcomes.size();
  for (const metrics::TaskOutcome& o : outcomes) {
    if (o.status == metrics::TaskStatus::kCompleted) ++share.completed;
    else ++share.lost;
  }
  share.resubmissions += countResubmissions(outcomes);
}

/// Shared live churn dispatch for both harness shapes (single- and
/// multi-agent): the daemon lookup and the joiner factory differ per shape,
/// the event semantics must not. Folds every event into an FNV digest as it
/// is dispatched (the undispatched tail folded at finish), witnessing that
/// this harness iterated the compiled canonical sequence; an event whose
/// target daemon cannot be found is counted as skipped - the deterministic
/// dropped-event signal the digest alone cannot give (see loopback.hpp).
class LiveChurnDriver {
 public:
  using DaemonByNameFn = std::function<NetServerDaemon*(const std::string&)>;
  using StartServerFn = std::function<void(const psched::MachineSpec&, double)>;

  LiveChurnDriver(std::vector<cas::ChurnEvent> timeline, DaemonByNameFn daemonByName,
                  StartServerFn startServer, LiveRunReport& report)
      : timeline_(std::move(timeline)),
        daemonByName_(std::move(daemonByName)),
        startServer_(std::move(startServer)),
        report_(report) {
    std::stable_sort(timeline_.begin(), timeline_.end(),
                     [](const cas::ChurnEvent& a, const cas::ChurnEvent& b) {
                       return a.time < b.time;
                     });
  }

  /// Dispatches every event due by `simNow` (wall-paced scenario time).
  void pump(double simNow) {
    while (next_ < timeline_.size() && timeline_[next_].time <= simNow) {
      digest_.fold(timeline_[next_]);
      apply(timeline_[next_], simNow);
      ++next_;
    }
  }

  /// Folds in the tail the run never reached (every task already terminal)
  /// and records the digest: it then covers the full canonical sequence,
  /// dispatched events first - equal to the simulator's timeline digest only
  /// when both sides consumed one identical generated stream.
  void finish() {
    for (std::size_t i = next_; i < timeline_.size(); ++i) digest_.fold(timeline_[i]);
    report_.churnDigest = digest_.value();
  }

 private:
  void apply(const cas::ChurnEvent& event, double simNow) {
    LOG_INFO("live churn: " << cas::churnActionName(event.action) << " "
                            << event.server << " at sim t=" << simNow);
    switch (event.action) {
      case cas::ChurnAction::kJoin:
        startServer_(event.joinSpec, event.speedIndex);
        ++report_.churnApplied.joins;
        return;
      case cas::ChurnAction::kLeave:
        if (NetServerDaemon* d = daemonByName_(event.server)) {
          d->leave();
          ++report_.churnApplied.leaves;
        } else {
          ++report_.churnSkipped;
        }
        return;
      case cas::ChurnAction::kCrash:
        if (NetServerDaemon* d = daemonByName_(event.server)) {
          if (d->crash(event.duration)) ++report_.churnApplied.crashes;
        } else {
          ++report_.churnSkipped;
        }
        return;
      case cas::ChurnAction::kSlowdown:
        if (NetServerDaemon* d = daemonByName_(event.server)) {
          d->setSpeedFactor(event.factor, event.duration);
          ++report_.churnApplied.slowdowns;
        } else {
          ++report_.churnSkipped;
        }
        return;
      case cas::ChurnAction::kLink:
        if (NetServerDaemon* d = daemonByName_(event.server)) {
          d->setLinkFactor(event.factor, event.duration);
          ++report_.churnApplied.links;
        } else {
          ++report_.churnSkipped;
        }
        return;
    }
  }

  std::vector<cas::ChurnEvent> timeline_;
  std::size_t next_ = 0;
  DaemonByNameFn daemonByName_;
  StartServerFn startServer_;
  LiveRunReport& report_;
  scenario::ChurnDigest digest_;
};

/// Deploys the scenario's agents (one without an [agents] section), a server
/// daemon per testbed entry and the client, all pumped from this thread.
LiveRunReport runDeployment(const scenario::CompiledScenario& compiled,
                            const LiveRunOptions& options) {
  const scenario::AgentsSpec& spec = compiled.agents;
  // One shared epoch keeps every daemon's simulation clock aligned.
  const PacedClock clock(options.timeScale);

  // Replicas keep snapshot files in a per-run directory; a caller-provided
  // one is kept (operators may want the snapshots), the default temp one is
  // removed. A lone agent has nobody to warm and keeps none.
  namespace fs = std::filesystem;
  const bool replicas = spec.count > 1;
  const bool ownSnapshotDir = options.snapshotDir.empty();
  fs::path snapshotDir = options.snapshotDir.empty()
                             ? fs::temp_directory_path() /
                                   util::strformat("casched-run-%d-%p", ::getpid(),
                                                   static_cast<const void*>(&clock))
                             : fs::path(options.snapshotDir);
  if (replicas) fs::create_directories(snapshotDir);

  std::vector<AgentSlot> slots(spec.count);
  for (std::size_t i = 0; i < spec.count; ++i) {
    AgentSlot& slot = slots[i];
    slot.config = baseAgentConfig(compiled, options);
    slot.config.agentName = util::strformat("agent-%zu", i);
    slot.config.mode = parseAgentMode(spec.mode);
    slot.config.syncPeriod = spec.syncPeriod;
    if (replicas) {
      slot.config.snapshotPath = (snapshotDir / (slot.config.agentName + ".htmsnap")).string();
    }
    slot.config.mesh = mesh::MeshConfig::from(compiled.mesh);
    slot.daemon = std::make_unique<AgentDaemon>(slot.config, clock);
    slot.port = slot.daemon->port();
    slot.config.port = slot.port;  // a restart rebinds the same port
  }
  // Peer mesh: the lower-index agent dials (and re-dials) the higher one, so
  // exactly one link exists per pair whoever crashed last. Recorded in the
  // config too so restarted incarnations resume dialing.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = i + 1; j < slots.size(); ++j) {
      const std::string address = util::strformat("127.0.0.1:%u", slots[j].port);
      slots[i].config.peers.push_back(address);
      slots[i].daemon->addPeer(address);
    }
  }

  const bool partitioned = parseAgentMode(spec.mode) == AgentMode::kPartitioned;
  // Mesh deployments home each server on its rack's owner (the simulator uses
  // the same assignment); otherwise partitioned mode round-robins by index.
  std::vector<std::size_t> rackOwner;
  if (compiled.mesh.enabled) {
    rackOwner.assign(compiled.testbed.servers.size(), 0);
    for (const scenario::RackSpec& rack : compiled.mesh.racks) {
      for (const std::size_t s : rack.servers) rackOwner[s] = rack.agentIndex;
    }
  }
  const auto portsFor = [&](std::size_t serverIdx) {
    std::vector<std::uint16_t> ports;
    const std::size_t home = serverIdx < rackOwner.size()
                                 ? rackOwner[serverIdx]
                                 : (partitioned ? serverIdx % slots.size() : 0);
    for (std::size_t k = 0; k < slots.size(); ++k) {
      ports.push_back(slots[(home + k) % slots.size()].port);
    }
    return ports;
  };

  std::vector<std::unique_ptr<NetServerDaemon>> servers;
  std::size_t serverCounter = 0;
  const auto startServer = [&](const psched::MachineSpec& machineSpec,
                               double speedIndex) {
    auto daemon = std::make_unique<NetServerDaemon>(
        serverConfig(machineSpec, speedIndex, portsFor(serverCounter++),
                     compiled.system, options.heartbeatPeriod),
        clock);
    daemon->connect();
    servers.push_back(std::move(daemon));
  };
  for (const psched::MachineSpec& machineSpec : compiled.testbed.servers) {
    startServer(machineSpec, compiled.testbed.costs.speedIndex(machineSpec.name));
  }

  LiveRunReport report;
  report.scenario = compiled.name;
  report.heuristic = options.heuristic;
  report.timeScale = options.timeScale;
  report.tasks = compiled.metatask.size();
  report.agentsDeployed = spec.count;
  report.agentMode = spec.mode;

  const auto stopRequested = [&] {
    return options.stopFlag != nullptr &&
           options.stopFlag->load(std::memory_order_relaxed);
  };
  const auto liveServers = [&] {
    std::size_t n = 0;
    for (const AgentSlot& slot : slots) {
      if (slot.daemon) n += slot.daemon->liveServerCount();
    }
    return n;
  };
  const auto pumpAll = [&](ClientDriver* client) {
    for (AgentSlot& slot : slots) {
      if (slot.daemon) slot.daemon->runOnce();
    }
    for (auto& s : servers) s->runOnce();
    if (client != nullptr) client->runOnce();
  };

  // Wait for every initial registration before the first arrival fires.
  const WallDeadline registrationDeadline(5.0);
  while (liveServers() < servers.size() && !stopRequested()) {
    if (registrationDeadline.passed()) {
      throw util::IoError("loopback run: initial server registration timed out");
    }
    pumpAll(nullptr);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  ClientConfig clientConfig;
  if (compiled.mesh.enabled && compiled.mesh.topology == "tree") {
    // Hierarchical topology: the client talks to the root only; the root
    // owns no rack and routes (forward or steal) into the leaves.
    clientConfig.agentPorts.push_back(slots[compiled.mesh.root].port);
  } else {
    for (const AgentSlot& slot : slots) clientConfig.agentPorts.push_back(slot.port);
  }
  clientConfig.roundRobin = partitioned;
  ClientDriver client(clientConfig, clock);
  client.connect();
  client.start(compiled.metatask);

  // Server churn timeline, applied live at its (wall-paced) scenario times.
  LiveChurnDriver churnDriver(
      compiled.churn,
      [&](const std::string& name) -> NetServerDaemon* {
        for (auto& s : servers) {
          if (s->name() == name) return s.get();
        }
        return nullptr;
      },
      startServer, report);

  // Agent churn timeline (crash + optional restart), time-sorted.
  std::vector<scenario::AgentEventSpec> agentEvents = spec.events;
  std::stable_sort(agentEvents.begin(), agentEvents.end(),
                   [](const scenario::AgentEventSpec& a, const scenario::AgentEventSpec& b) {
                     return a.time < b.time;
                   });
  std::size_t nextAgentEvent = 0;
  const auto crashAgent = [&](const scenario::AgentEventSpec& event) {
    AgentSlot& slot = slots[event.agentIndex];
    if (!slot.daemon) return;  // already down
    LOG_INFO("live churn: crash " << slot.config.agentName << " at sim t="
                                  << clock.simNow());
    const std::vector<metrics::TaskOutcome> outcomes =
        slot.daemon->agent().collectOutcomes();
    slot.pastOutcomes.insert(slot.pastOutcomes.end(), outcomes.begin(), outcomes.end());
    slot.pastSyncs += slot.daemon->syncsReceived();
    slot.pastAdopted += slot.daemon->peerRowsAdopted();
    slot.daemon.reset();  // listener + every transport die with the process
    ++report.agentCrashes;
    if (event.restartAfter >= 0.0) slot.restartAt = event.time + event.restartAfter;
  };
  const auto maybeRestartAgents = [&] {
    for (AgentSlot& slot : slots) {
      if (!slot.daemon && slot.restartAt >= 0.0 && clock.simNow() >= slot.restartAt) {
        slot.restartAt = -1.0;
        slot.daemon = std::make_unique<AgentDaemon>(slot.config, clock);
        ++report.agentRestarts;
        report.warmStartRows += slot.daemon->warmStartedRows();
        LOG_INFO("live churn: restarted " << slot.config.agentName << " (warm rows: "
                                          << slot.daemon->warmStartedRows() << ")");
      }
    }
  };

  const WallDeadline deadline(options.wallTimeoutSeconds);
  while (!client.done() && !stopRequested()) {
    if (deadline.passed()) {
      report.timedOut = true;
      break;
    }
    churnDriver.pump(clock.simNow());
    while (nextAgentEvent < agentEvents.size() &&
           agentEvents[nextAgentEvent].time <= clock.simNow()) {
      crashAgent(agentEvents[nextAgentEvent]);
      ++nextAgentEvent;
    }
    maybeRestartAgents();
    pumpAll(&client);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  churnDriver.finish();

  // The client is the authority on terminal counts here: after a fail-over
  // no single agent saw every task.
  report.completed = client.completedCount();
  report.lost = report.tasks - std::min(report.tasks, report.completed);
  report.clientFailovers = client.failoverResubmissions();
  report.clientDenies = client.scheduleDenies();

  for (AgentSlot& slot : slots) {
    AgentShare share;
    share.name = slot.config.agentName;
    accumulateShare(share, slot.pastOutcomes);
    report.outcomes.insert(report.outcomes.end(), slot.pastOutcomes.begin(),
                           slot.pastOutcomes.end());
    report.peerSyncs += slot.pastSyncs;
    report.peerRowsAdopted += slot.pastAdopted;
    if (slot.daemon) {
      const std::vector<metrics::TaskOutcome> outcomes =
          slot.daemon->agent().collectOutcomes();
      accumulateShare(share, outcomes);
      report.outcomes.insert(report.outcomes.end(), outcomes.begin(), outcomes.end());
      report.peerSyncs += slot.daemon->syncsReceived();
      report.peerRowsAdopted += slot.daemon->peerRowsAdopted();
      report.serversRetired += slot.daemon->retiredServerCount();
      report.mesh += slot.daemon->meshStats();
      report.heldTaskEntries += slot.daemon->heldTaskEntries();
    }
    report.resubmissions += share.resubmissions;
    report.perAgent.push_back(std::move(share));
  }
  report.serversStarted = servers.size();
  report.wallSeconds = clock.wallElapsed();
  for (const AgentSlot& slot : slots) {
    if (slot.daemon) {
      report.simEndTime = slot.daemon->simulator().now();
      break;
    }
  }

  if (replicas && ownSnapshotDir) {
    std::error_code ec;
    fs::remove_all(snapshotDir, ec);  // best effort; temp dir anyway
  }
  return report;
}

}  // namespace

std::uint64_t countResubmissions(const std::vector<metrics::TaskOutcome>& outcomes) {
  std::uint64_t n = 0;
  for (const metrics::TaskOutcome& o : outcomes) {
    if (o.attempts > 1) n += static_cast<std::uint64_t>(o.attempts - 1);
  }
  return n;
}

LiveRunReport runLoopbackScenario(const scenario::ScenarioSpec& spec,
                                  const LiveRunOptions& options) {
  const scenario::CompiledScenario compiled =
      scenario::compileScenario(spec, options.seed);
  LiveRunReport report = runDeployment(compiled, options);
  report.generatedChurn = compiled.generatedChurn;
  report.churnPlanned =
      scenario::summarizeChurnTimeline(compiled.churn, compiled.faultDomains);
  return report;
}

LiveRunReport runLoopbackScenario(const std::string& registryName,
                                  const LiveRunOptions& options) {
  return runLoopbackScenario(scenario::findScenario(registryName), options);
}

std::string liveRunJson(const LiveRunReport& report) {
  util::JsonWriter json;
  json.beginObject();
  json.key("scenario").value(report.scenario);
  json.key("heuristic").value(report.heuristic);
  json.key("time_scale").value(report.timeScale);
  json.key("tasks").value(report.tasks);
  json.key("completed").value(report.completed);
  json.key("lost").value(report.lost);
  json.key("resubmissions").value(report.resubmissions);
  json.key("churn_applied");
  json.beginObject();
  json.key("joins").value(report.churnApplied.joins);
  json.key("leaves").value(report.churnApplied.leaves);
  json.key("crashes").value(report.churnApplied.crashes);
  json.key("slowdowns").value(report.churnApplied.slowdowns);
  json.key("links").value(report.churnApplied.links);
  json.endObject();
  json.key("generated_churn").value(report.generatedChurn);
  json.key("churn_skipped").value(report.churnSkipped);
  json.key("churn_digest").value(report.churnDigest);
  json.key("churn_planned");
  json.beginObject();
  json.key("crashes").value(report.churnPlanned.crashes);
  json.key("slowdowns").value(report.churnPlanned.slowdowns);
  json.key("links").value(report.churnPlanned.linkEvents);
  json.key("mean_downtime").value(report.churnPlanned.meanDowntime);
  json.key("max_concurrent_down").value(report.churnPlanned.maxConcurrentDown);
  json.key("max_dead_domains").value(report.churnPlanned.maxConcurrentDeadDomains);
  json.endObject();
  json.key("servers_started").value(report.serversStarted);
  json.key("servers_retired").value(report.serversRetired);
  json.key("agents");
  json.beginObject();
  json.key("deployed").value(report.agentsDeployed);
  json.key("mode").value(report.agentMode);
  json.key("crashes").value(report.agentCrashes);
  json.key("restarts").value(report.agentRestarts);
  json.key("warm_start_rows").value(report.warmStartRows);
  json.key("peer_syncs").value(report.peerSyncs);
  json.key("peer_rows_adopted").value(report.peerRowsAdopted);
  json.key("client_failovers").value(report.clientFailovers);
  json.key("per_agent");
  json.beginArray();
  for (const AgentShare& share : report.perAgent) {
    json.beginObject();
    json.key("name").value(share.name);
    json.key("tasks").value(share.tasks);
    json.key("completed").value(share.completed);
    json.key("lost").value(share.lost);
    json.key("resubmissions").value(share.resubmissions);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  json.key("mesh");
  json.beginObject();
  json.key("forwards").value(report.mesh.forwards);
  json.key("denies").value(report.mesh.forwardDenies);
  json.key("steals").value(report.mesh.steals);
  json.key("parked").value(report.mesh.parked);
  json.key("client_denies").value(report.clientDenies);
  json.endObject();
  json.key("wall_seconds").value(report.wallSeconds);
  json.key("sim_end_time").value(report.simEndTime);
  json.key("timed_out").value(report.timedOut);
  json.endObject();
  return json.str();
}

}  // namespace casched::net
