#include "cas/system.hpp"

#include <algorithm>

#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "simcore/rng.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

#undef CASCHED_LOG_COMPONENT
#define CASCHED_LOG_COMPONENT "cas.system"

namespace casched::cas {

namespace {

metrics::TaskOutcome lostOutcome(const workload::TaskInstance& task) {
  metrics::TaskOutcome o;
  o.index = task.index;
  o.typeName = task.type.name;
  o.arrival = task.arrival;
  o.status = metrics::TaskStatus::kLost;
  return o;
}

}  // namespace

GridSystem::GridSystem(const platform::Testbed& testbed,
                       const workload::Metatask& metatask,
                       const std::string& schedulerName, const SystemConfig& config)
    : GridSystem(testbed, metatask, schedulerName, config, scenario::AgentsSpec{},
                 scenario::MeshSpec{}) {}

GridSystem::GridSystem(const platform::Testbed& testbed,
                       const workload::Metatask& metatask,
                       const std::string& schedulerName, const SystemConfig& config,
                       const scenario::AgentsSpec& agents,
                       const scenario::MeshSpec& mesh)
    : metatask_(metatask),
      schedulerName_(schedulerName),
      config_(config),
      mesh_(mesh) {
  CASCHED_CHECK(!testbed.servers.empty(), "testbed has no servers");
  CASCHED_CHECK(!metatask_.tasks.empty(), "metatask is empty");
  CASCHED_CHECK(!mesh_.enabled || agents.count >= 2, "mesh needs at least two agents");

  // Resolve the latency once; joiners added mid-run reuse it.
  if (config_.controlLatency < 0.0) config_.controlLatency = testbed.controlLatency;

  AgentConfig agentConfig;
  agentConfig.controlLatency = config_.controlLatency;
  agentConfig.faultTolerance = config_.faultTolerance;
  agentConfig.maxRetries = config_.maxRetries;
  agentConfig.htmSync = config_.htmSync;

  nodes_.resize(mesh_.enabled ? agents.count : 1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    node.agent = std::make_unique<Agent>(
        sim_, core::makeScheduler(schedulerName, config_.schedulerSeed), testbed.costs,
        agentConfig);
    node.agent->setExpectedTasks(metatask_.size());
    node.relay.sim = &sim_;
    node.relay.agent = node.agent.get();
    node.relay.latency = config_.controlLatency;
    node.agent->setTaskTerminalObserver([this, i](const metrics::TaskOutcome& outcome) {
      if (nodes_[i].mesh) relayTerminal(i, outcome.index);
      onTerminal();
    });
    if (!mesh_.enabled) continue;
    node.mesh.emplace(mesh::MeshConfig::from(mesh_), util::strformat("agent%zu", i));
    node.agent->setDecisionLabel(node.mesh->name());
    node.agent->setDecisionAnnotator(
        [this, i](std::uint64_t taskId, obs::DecisionRecord& record) {
          record.origin = nodes_[i].mesh->originOf(taskId);
        });
  }

  if (!mesh_.enabled) {
    for (std::size_t s = 0; s < testbed.servers.size(); ++s) {
      addServer(nodes_[0], testbed.servers[s], s);
    }
    return;
  }
  // Home each server on its rack owner (compileScenario validated total
  // disjoint coverage, so every server lands exactly once).
  for (const scenario::RackSpec& rack : mesh_.racks) {
    for (const std::size_t serverIndex : rack.servers) {
      addServer(nodes_[rack.agentIndex], testbed.servers.at(serverIndex), serverIndex);
    }
  }
}

ServerNodeConfig serverNodeConfig(const SystemConfig& config, std::size_t index) {
  ServerNodeConfig node;
  node.reportPeriod = config.reportPeriod;
  node.cpuNoise = config.cpuNoise;
  node.linkNoise = config.linkNoise;
  node.noiseSeed = simcore::deriveSeed(config.noiseSeed, index);
  return node;
}

void GridSystem::AgentRelay::completed(const std::string& server, std::uint64_t taskId,
                                       simcore::SimTime completion, double unloaded) {
  sim->scheduleAfter(latency, [a = agent, server, taskId, completion, unloaded] {
    a->onTaskCompleted(server, taskId, completion, unloaded);
  });
}

void GridSystem::AgentRelay::failed(const std::string& server, std::uint64_t taskId,
                                    std::string_view /*reason*/) {
  sim->scheduleAfter(latency,
                     [a = agent, server, taskId] { a->onTaskFailed(server, taskId); });
}

void GridSystem::AgentRelay::loadReport(const std::string& server, double load,
                                        simcore::SimTime sampleTime) {
  sim->scheduleAfter(latency, [a = agent, server, load, sampleTime] {
    a->onLoadReport(server, load, sampleTime);
  });
}

void GridSystem::AgentRelay::down(const std::string& server) {
  sim->scheduleAfter(latency, [a = agent, server] { a->onServerDown(server); });
}

void GridSystem::AgentRelay::up(const std::string& server) {
  sim->scheduleAfter(latency, [a = agent, server] { a->onServerUp(server); });
}

void GridSystem::addServer(Node& node, const psched::MachineSpec& spec,
                           std::size_t index) {
  auto server = std::make_unique<ServerNode>(sim_, spec, serverNodeConfig(config_, index),
                                             node.relay);
  core::ServerModel model;
  model.name = spec.name;
  model.bwInMBps = spec.bwInMBps;
  model.bwOutMBps = spec.bwOutMBps;
  model.latencyIn = spec.latencyIn;
  model.latencyOut = spec.latencyOut;
  node.agent->registerServer(server.get(), model, {"*"}, spec.ramMB,
                             spec.ramMB + spec.swapMB);
  server->start();
  node.servers.push_back(std::move(server));
}

ServerNode& GridSystem::server(const std::string& name) {
  for (Node& node : nodes_) {
    for (auto& s : node.servers) {
      if (s->name() == name) return *s;
    }
  }
  throw util::Error("unknown server '" + name + "'");
}

void GridSystem::setChurnTimeline(std::vector<ChurnEvent> events) {
  CASCHED_CHECK(events.empty() || nodes_.size() == 1,
                "churn timelines need the single-agent system");
  for (const ChurnEvent& e : events) {
    CASCHED_CHECK(e.time >= 0.0, "churn event time must be non-negative");
    CASCHED_CHECK(!e.server.empty(), "churn event needs a server name");
  }
  timeline_ = std::move(events);
}

void GridSystem::applyChurn(const ChurnEvent& event) {
  LOG_DEBUG("churn: " << churnActionName(event.action) << " " << event.server
                      << " at t=" << sim_.now());
  switch (event.action) {
    case ChurnAction::kJoin: {
      psched::MachineSpec spec = event.joinSpec;
      spec.name = event.server;
      agent().setServerSpeedIndex(event.server, event.speedIndex);
      addServer(nodes_.front(), spec, nodes_.front().servers.size());
      ++churnStats_.joins;
      return;
    }
    case ChurnAction::kLeave: {
      ServerNode& s = server(event.server);
      agent().deregisterServer(event.server);
      s.quiesce();  // stop load reports and noise; in-flight tasks drain
      ++churnStats_.leaves;
      return;
    }
    case ChurnAction::kCrash: {
      // Same path as a memory collapse: victims fail, the agent is notified
      // (fault tolerance re-submits elsewhere) and the machine recovers after
      // the event's downtime (0 = the machine's own recovery time). A crash
      // on an already-down machine is a no-op and is not counted.
      if (server(event.server).crash(event.duration)) {
        ++churnStats_.crashes;
      }
      return;
    }
    case ChurnAction::kSlowdown: {
      server(event.server).setSpeedFactor(event.factor, event.duration);
      ++churnStats_.slowdowns;
      return;
    }
    case ChurnAction::kLink: {
      server(event.server).setLinkFactor(event.factor, event.duration);
      ++churnStats_.links;
      return;
    }
  }
}

void GridSystem::submitMetatask() {
  // Paper section 5: the client submits each task at its arrival date; the
  // agent receives the request one control latency later.
  const std::vector<workload::TaskInstance>& tasks = metatask_.tasks;
  if (mesh_.enabled) {
    // Flat: clients spread requests over every agent. Tree: the root only.
    for (const workload::TaskInstance& task : tasks) {
      const std::size_t target =
          mesh_.topology == "tree" ? mesh_.root : task.index % nodes_.size();
      sim_.scheduleAt(task.arrival + config_.controlLatency, [this, target, &task] {
        onRequest(target, task, /*hops=*/0, /*fromAgent=*/std::string());
      });
    }
    return;
  }
  // Consecutive tasks sharing an arrival date form one placement batch: a
  // single submission event hands them to Agent::scheduleBatch, amortizing
  // one HTM refresh over the run. Placements are identical to per-task
  // events at the same instant (a batch of one IS requestSchedule, and each
  // task in a batch sees its predecessors' commits exactly as sequential
  // requests at that time would).
  Agent* agent = nodes_.front().agent.get();
  for (std::size_t i = 0; i < tasks.size();) {
    std::size_t j = i + 1;
    while (j < tasks.size() && tasks[j].arrival == tasks[i].arrival) ++j;
    const std::span<const workload::TaskInstance> group(tasks.data() + i, j - i);
    sim_.scheduleAt(tasks[i].arrival + config_.controlLatency,
                    [agent, group] { agent->scheduleBatch(group); });
    i = j;
  }
}

/// Peer digests for a decision at `self`. The simulator reads peers
/// directly - the live mesh sees the same numbers one sync period stale,
/// which can shift individual placements but not completion counts.
std::vector<mesh::PeerDigest> GridSystem::peerDigests(std::size_t self) const {
  std::vector<mesh::PeerDigest> digests;
  digests.reserve(nodes_.size());
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    if (j == self) continue;
    const Node& peer = nodes_[j];
    digests.push_back({j, peer.mesh->name(), peer.agent->meanLoadEstimate(),
                       static_cast<std::uint32_t>(peer.agent->liveServerCount()),
                       static_cast<std::uint32_t>(peer.mesh->parked().size())});
  }
  return digests;
}

std::size_t GridSystem::nodeIndex(const std::string& name) const {
  std::size_t i = 0;
  while (nodes_.at(i).mesh->name() != name) ++i;
  return i;
}

void GridSystem::onRequest(std::size_t self, const workload::TaskInstance& task,
                           std::uint32_t hops, const std::string& fromAgent) {
  Node& node = nodes_[self];
  const mesh::LocalView local = node.agent->meshView(task, hops, node.mesh->config());
  const std::vector<mesh::PeerDigest> peers = peerDigests(self);
  const mesh::RouteDecision decision = node.mesh->route(task, fromAgent, local, peers);

  switch (decision.kind) {
    case mesh::RouteKind::kLocal:
      node.agent->requestSchedule(task);
      return;
    case mesh::RouteKind::kForward: {
      const std::size_t target = decision.peer;
      LOG_DEBUG("task " << task.index << " forwarded " << node.mesh->name() << " -> "
                        << nodes_[target].mesh->name() << " (" << decision.reason << ")");
      sim_.scheduleAfter(config_.controlLatency,
                         [this, target, task, hops, from = node.mesh->name()] {
                           onRequest(target, task, hops + 1, from);
                         });
      return;
    }
    case mesh::RouteKind::kPark:
      return;
    case mesh::RouteKind::kDeny:
      LOG_DEBUG("task " << task.index << " denied at " << node.mesh->name() << " ("
                        << decision.reason << ")");
      deny(node, task, fromAgent);
      return;
  }
}

/// A client's denied task is lost; a forwarding agent hears of the deny one
/// control latency later and falls back on its own partition.
void GridSystem::deny(Node& node, const workload::TaskInstance& task,
                      const std::string& fromAgent) {
  node.mesh->denied();
  if (fromAgent.empty()) {
    denied_.push_back(lostOutcome(task));
    onTerminal();
    return;
  }
  const std::size_t back = nodeIndex(fromAgent);
  sim_.scheduleAfter(config_.controlLatency,
                     [this, back, id = task.index] { onForwardDenied(back, id); });
}

void GridSystem::onForwardDenied(std::size_t self, std::uint64_t taskId) {
  Node& node = nodes_[self];
  const auto bounce =
      node.mesh->forwardDenied(taskId, [&node](const workload::TaskInstance& task) {
        return node.agent->hasFeasibleServer(task.type.name);
      });
  if (!bounce) return;
  if (bounce->placeHere) node.agent->requestSchedule(bounce->task);
  else deny(node, bounce->task, bounce->fromAgent);
}

/// One global steal round in node order, deterministic: each idle node asks
/// the peer with the most parked work, the request reaches the victim within
/// the sweep, and the grant's round trip delays placement by two control
/// latencies.
void GridSystem::stealTick() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& thief = nodes_[i];
    const std::optional<std::size_t> victim =
        thief.mesh->stealTarget(thief.agent->liveServerCount(), peerDigests(i));
    if (!victim) continue;
    mesh::AgentNode& victimNode = *nodes_[*victim].mesh;
    mesh::StealPlacement grant = thief.mesh->stealGranted(
        victimNode.name(), victimNode.stealRequested(thief.mesh->name(), mesh_.stealBatch),
        [&thief](std::uint64_t taskId) { return thief.agent->knowsTask(taskId); });
    CASCHED_CHECK(grant.refused.empty(), "simulated task ids are unique");
    Agent* agent = thief.agent.get();
    for (workload::TaskInstance& task : grant.place) {
      sim_.scheduleAfter(2.0 * config_.controlLatency,
                         [agent, task = std::move(task)] { agent->requestSchedule(task); });
    }
  }
  if (terminal_ < metatask_.size()) {
    sim_.scheduleAfter(mesh_.stealPeriod, [this] { stealTick(); });
  }
}

/// Walks a finished task's hand-off chain back towards the agent its client
/// asked, as the live relays do, so no node keeps an entry for it.
void GridSystem::relayTerminal(std::size_t self, std::uint64_t taskId) {
  std::string from = nodes_[self].mesh->terminal(taskId).fromAgent;
  while (!from.empty()) from = nodes_[nodeIndex(from)].mesh->terminal(taskId).fromAgent;
}

void GridSystem::onTerminal() {
  if (++terminal_ == metatask_.size()) sim_.requestStop();
}

metrics::RunResult GridSystem::run() {
  for (const ChurnEvent& event : timeline_) {
    sim_.scheduleAt(event.time, [this, event] { applyChurn(event); });
  }
  submitMetatask();
  if (mesh_.enabled && mesh_.stealPeriod > 0.0) {
    sim_.scheduleAt(mesh_.stealPeriod, [this] { stealTick(); });
  }
  sim_.run(config_.horizon);

  if (terminal_ < metatask_.size()) {
    LOG_WARN("run hit the horizon with " << metatask_.size() - terminal_
                                         << " unfinished tasks");
  }
  for (Node& node : nodes_) {
    for (auto& s : node.servers) s->quiesce();
  }
  return buildResult();
}

metrics::RunResult GridSystem::buildResult() {
  metrics::RunResult result;
  result.heuristic = schedulerName_;
  result.metataskName = metatask_.name;
  result.endTime = sim_.now();
  result.simulatedEvents = sim_.executedEvents();

  // Bulk-account simulator work once per run: a per-event atomic in the
  // engine's dispatch loop would contend across the parallel replication
  // runner's threads for no observability gain.
  auto& reg = obs::Registry::global();
  static obs::Counter* simRuns = &reg.counter(
      "casched_sim_runs_total", "Completed GridSystem simulation runs");
  static obs::Counter* simEvents = &reg.counter(
      "casched_sim_events_total", "Simulator events executed across runs");
  simRuns->inc();
  simEvents->inc(result.simulatedEvents);
  result.churn = churnStats_;

  // Outcomes in metatask-index order: every agent's tasks, the denied ones,
  // and the tasks still parked when the horizon hit (they never reached an
  // agent).
  result.tasks.reserve(metatask_.size());
  for (const Node& node : nodes_) {
    for (metrics::TaskOutcome& o : node.agent->collectOutcomes()) {
      result.tasks.push_back(std::move(o));
    }
    if (!node.mesh) continue;
    result.mesh += node.mesh->stats();
    for (const workload::TaskInstance& task : node.mesh->parked()) {
      result.tasks.push_back(lostOutcome(task));
    }
  }
  result.tasks.insert(result.tasks.end(), denied_.begin(), denied_.end());
  std::sort(result.tasks.begin(), result.tasks.end(),
            [](const metrics::TaskOutcome& a, const metrics::TaskOutcome& b) {
              return a.index < b.index;
            });

  // One agent reports its own prediction error; a mesh weights its agents'
  // errors by their decisions.
  double errorWeight = 0.0;
  double errorSum = 0.0;
  for (const Node& node : nodes_) {
    const double decisions = static_cast<double>(node.agent->scheduleDecisions());
    if (decisions > 0.0) {
      errorSum += node.agent->htm().stats().meanRelErrorPercent() * decisions;
      errorWeight += decisions;
    }
    for (const auto& server : node.servers) {
      const psched::MachineStats& ms = server->machine().stats();
      metrics::ServerSummary s;
      s.tasksCompleted = ms.completed;
      s.tasksFailed = ms.failed;
      s.collapses = ms.collapses;
      s.peakResidentMB = ms.peakResidentMB;
      s.busySeconds = ms.busyCpuSeconds;
      s.peakLoadReported = node.agent->peakReportedLoad(server->name());
      result.servers.emplace(server->name(), s);
    }
  }
  if (nodes_.size() == 1) {
    result.htmMeanRelErrorPercent = agent().htm().stats().meanRelErrorPercent();
  } else if (errorWeight > 0.0) {
    result.htmMeanRelErrorPercent = errorSum / errorWeight;
  }
  return result;
}

metrics::RunResult runExperimentSystem(const platform::Testbed& testbed,
                                       const workload::Metatask& metatask,
                                       const std::string& schedulerName,
                                       const SystemConfig& config,
                                       std::vector<ChurnEvent> churn,
                                       const scenario::AgentsSpec& agents,
                                       const scenario::MeshSpec& mesh) {
  GridSystem system(testbed, metatask, schedulerName, config, agents, mesh);
  system.setChurnTimeline(std::move(churn));
  return system.run();
}

}  // namespace casched::cas
