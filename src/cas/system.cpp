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
      mesh_(mesh),
      router_(mesh::routerConfigFrom(mesh)) {
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
    node.agent->setTaskTerminalObserver(
        [this](const metrics::TaskOutcome&) { onTerminal(); });
    if (!mesh_.enabled) continue;
    node.name = util::strformat("agent%zu", i);
    node.agent->setDecisionLabel(node.name);
    node.agent->setDecisionAnnotator(
        [this, i](std::uint64_t taskId, obs::DecisionRecord& record) {
          const auto it = nodes_[i].origin.find(taskId);
          record.origin = it == nodes_[i].origin.end() ? "local" : it->second;
        });
  }

  if (!mesh_.enabled) {
    for (const psched::MachineSpec& spec : testbed.servers) addServer(nodes_[0], spec);
    return;
  }
  // Home each server on its rack owner (compileScenario validated total
  // disjoint coverage, so every server lands exactly once).
  for (const scenario::RackSpec& rack : mesh_.racks) {
    for (const std::size_t serverIndex : rack.servers) {
      addServer(nodes_[rack.agentIndex], testbed.servers.at(serverIndex));
    }
  }
}

void GridSystem::addServer(Node& node, const psched::MachineSpec& spec) {
  ServerDaemonConfig daemonConfig;
  daemonConfig.reportPeriod = config_.reportPeriod;
  daemonConfig.controlLatency = config_.controlLatency;
  daemonConfig.cpuNoise = config_.cpuNoise;
  daemonConfig.linkNoise = config_.linkNoise;
  daemonConfig.noiseSeed = simcore::deriveSeed(config_.noiseSeed, nextNoiseStream_++);
  auto daemon = std::make_unique<ServerDaemon>(sim_, spec,
                                               std::vector<std::string>{"*"},
                                               daemonConfig);

  core::ServerModel model;
  model.name = spec.name;
  model.bwInMBps = spec.bwInMBps;
  model.bwOutMBps = spec.bwOutMBps;
  model.latencyIn = spec.latencyIn;
  model.latencyOut = spec.latencyOut;
  node.agent->registerServer(daemon.get(), model, {"*"}, spec.ramMB,
                             spec.ramMB + spec.swapMB);
  daemon->connectAgent(node.agent.get());
  node.daemons.push_back(std::move(daemon));
}

ServerDaemon& GridSystem::daemon(const std::string& name) {
  for (Node& node : nodes_) {
    for (auto& d : node.daemons) {
      if (d->name() == name) return *d;
    }
  }
  throw util::Error("unknown daemon '" + name + "'");
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
      addServer(nodes_.front(), spec);
      ++churnStats_.joins;
      return;
    }
    case ChurnAction::kLeave: {
      ServerDaemon& d = daemon(event.server);
      agent().deregisterServer(event.server);
      d.quiesce();  // stop load reports; in-flight tasks drain on the machine
      ++churnStats_.leaves;
      return;
    }
    case ChurnAction::kCrash: {
      // Same path as a memory collapse: victims fail, the agent is notified
      // (fault tolerance re-submits elsewhere) and the machine recovers after
      // the event's downtime (0 = the machine's own recovery time). A crash
      // on an already-down machine is a no-op and is not counted.
      if (daemon(event.server).machine().forceCollapse(event.duration)) {
        ++churnStats_.crashes;
      }
      return;
    }
    case ChurnAction::kSlowdown: {
      daemon(event.server).machine().setChurnSpeedFactor(event.factor, event.duration);
      ++churnStats_.slowdowns;
      return;
    }
    case ChurnAction::kLink: {
      daemon(event.server).machine().setChurnLinkFactor(event.factor, event.duration);
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
        onRequest(target, task, /*hops=*/0, /*origin=*/std::string());
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

/// Peer digests for a decision at `self`, excluding the agent the request
/// came from (a forward never bounces straight back). The simulator reads
/// peers directly - the live mesh sees the same numbers one sync period
/// stale, which can shift individual placements but not completion counts.
std::vector<mesh::PeerDigest> GridSystem::peerDigests(std::size_t self,
                                                      std::size_t exclude) const {
  std::vector<mesh::PeerDigest> digests;
  digests.reserve(nodes_.size());
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    if (j == self || j == exclude) continue;
    const Node& peer = nodes_[j];
    mesh::PeerDigest d;
    d.index = j;
    d.meanLoad = peer.agent->meanLoadEstimate();
    d.liveServers = static_cast<std::uint32_t>(peer.agent->liveServerCount());
    d.queuedTasks = static_cast<std::uint32_t>(peer.parked.size());
    digests.push_back(d);
  }
  return digests;
}

void GridSystem::onRequest(std::size_t self, const workload::TaskInstance& task,
                           std::uint32_t hops, const std::string& origin) {
  Node& node = nodes_[self];
  mesh::LocalView local;
  local.feasible = node.agent->hasFeasibleServer(task.type.name);
  if (local.feasible && router_.overloadThreshold > 0.0) {
    local.predictedCompletion = node.agent->previewBestCompletion(task);
  }
  local.now = sim_.now();
  local.meanLoad = node.agent->meanLoadEstimate();
  local.hops = hops;

  const std::size_t from = origin.empty() ? self : originIndex_.at(task.index);
  const std::vector<mesh::PeerDigest> peers = peerDigests(self, from);
  const mesh::RouteDecision decision = mesh::decideRoute(router_, local, peers);

  switch (decision.kind) {
    case mesh::RouteKind::kLocal:
      if (!origin.empty()) node.origin[task.index] = origin;
      node.agent->requestSchedule(task);
      return;
    case mesh::RouteKind::kForward: {
      ++meshStats_.forwards;
      originIndex_[task.index] = self;
      const std::size_t target = decision.peer;
      const std::string forwardOrigin = "forward:" + node.name;
      LOG_DEBUG("task " << task.index << " forwarded " << node.name << " -> "
                        << nodes_[target].name << " (" << decision.reason << ")");
      sim_.scheduleAfter(config_.controlLatency,
                         [this, target, task, hops, forwardOrigin] {
                           onRequest(target, task, hops + 1, forwardOrigin);
                         });
      return;
    }
    case mesh::RouteKind::kPark:
      ++meshStats_.parked;
      node.parked.push_back(task);
      return;
    case mesh::RouteKind::kDeny:
      ++meshStats_.forwardDenies;
      LOG_DEBUG("task " << task.index << " denied at " << node.name << " ("
                        << decision.reason << ")");
      denied_.push_back(lostOutcome(task));
      onTerminal();
      return;
  }
}

/// One global steal round: idle agents (live servers, nothing parked) pull
/// up to stealBatch tasks off the most-loaded parked queue. A single ordered
/// sweep keeps the round deterministic.
void GridSystem::stealTick() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& thief = nodes_[i];
    if (thief.agent->liveServerCount() == 0 || !thief.parked.empty()) continue;
    std::size_t victimIndex = nodes_.size();
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (j == i || nodes_[j].parked.empty()) continue;
      if (victimIndex == nodes_.size() ||
          nodes_[j].parked.size() > nodes_[victimIndex].parked.size()) {
        victimIndex = j;
      }
    }
    if (victimIndex == nodes_.size()) continue;
    Node& victim = nodes_[victimIndex];
    const std::size_t grant = std::min(mesh_.stealBatch, victim.parked.size());
    const std::string stealOrigin = "steal:" + victim.name;
    for (std::size_t k = 0; k < grant; ++k) {
      workload::TaskInstance task = victim.parked.front();
      victim.parked.pop_front();
      ++meshStats_.steals;
      thief.origin[task.index] = stealOrigin;
      // Steal request + grant round trip before the task can be placed.
      Agent* agent = thief.agent.get();
      sim_.scheduleAfter(2.0 * config_.controlLatency,
                         [agent, task] { agent->requestSchedule(task); });
    }
  }
  if (terminal_ < metatask_.size()) {
    sim_.scheduleAfter(mesh_.stealPeriod, [this] { stealTick(); });
  }
}

void GridSystem::onTerminal() {
  if (++terminal_ == metatask_.size()) sim_.requestStop();
}

metrics::RunResult GridSystem::run() {
  for (const ChurnEvent& event : timeline_) {
    sim_.scheduleAt(event.time, [this, event] { applyChurn(event); });
  }
  submitMetatask();
  if (router_.stealing) {
    sim_.scheduleAt(mesh_.stealPeriod, [this] { stealTick(); });
  }
  sim_.run(config_.horizon);

  if (terminal_ < metatask_.size()) {
    LOG_WARN("run hit the horizon with " << metatask_.size() - terminal_
                                         << " unfinished tasks");
  }
  for (Node& node : nodes_) {
    for (auto& d : node.daemons) d->quiesce();
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
  result.mesh = meshStats_;

  // Outcomes in metatask-index order: every agent's tasks, the denied ones,
  // and the tasks still parked when the horizon hit (they never reached an
  // agent).
  result.tasks.reserve(metatask_.size());
  for (const Node& node : nodes_) {
    for (metrics::TaskOutcome& o : node.agent->collectOutcomes()) {
      result.tasks.push_back(std::move(o));
    }
    for (const workload::TaskInstance& task : node.parked) {
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
    for (const auto& d : node.daemons) {
      const psched::MachineStats& ms = d->machine().stats();
      metrics::ServerSummary s;
      s.tasksCompleted = ms.completed;
      s.tasksFailed = ms.failed;
      s.collapses = ms.collapses;
      s.peakResidentMB = ms.peakResidentMB;
      s.busySeconds = ms.busyCpuSeconds;
      s.peakLoadReported = node.agent->peakReportedLoad(d->name());
      result.servers.emplace(d->name(), s);
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
