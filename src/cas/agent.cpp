#include "cas/agent.hpp"

#include <algorithm>

#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

#undef CASCHED_LOG_COMPONENT
#define CASCHED_LOG_COMPONENT "cas.agent"

namespace casched::cas {

namespace {

/// Scheduling-core instruments, resolved once per process; the hot path then
/// pays one relaxed fetch_add per event. Shared by the simulator and the
/// live daemons because both run this Agent.
struct AgentInstruments {
  obs::Counter& submitted;
  obs::Counter& decisions;
  obs::Counter& resubmissions;
  obs::Counter& noServerRetries;
  obs::Counter& completed;
  obs::Counter& lost;
  obs::Histogram& flow;

  static AgentInstruments& get() {
    auto& reg = obs::Registry::global();
    static AgentInstruments* instruments = new AgentInstruments{
        reg.counter("casched_tasks_submitted_total",
                    "Tasks whose first schedule request reached the agent"),
        reg.counter("casched_schedule_decisions_total",
                    "Heuristic choices made (re-submissions included)"),
        reg.counter("casched_tasks_resubmitted_total",
                    "Scheduling attempts past each task's first (fault tolerance)"),
        reg.counter("casched_no_server_retries_total",
                    "Requests deferred because no capable server was up"),
        reg.counter("casched_tasks_completed_total", "Tasks that completed"),
        reg.counter("casched_tasks_lost_total", "Tasks lost after exhausting retries"),
        reg.histogram("casched_task_flow_seconds",
                      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000},
                      "Per-task flow time (completion - arrival), sim seconds"),
    };
    return *instruments;
  }
};

/// inFlight vectors are sorted by taskId (the historical std::map order).
bool flightBefore(const std::pair<std::uint64_t, simcore::SimTime>& e,
                  std::uint64_t taskId) {
  return e.first < taskId;
}

}  // namespace

Agent::Agent(simcore::Simulator& sim, std::unique_ptr<core::Scheduler> scheduler,
             platform::CostModel costs, AgentConfig config)
    : sim_(sim),
      scheduler_(std::move(scheduler)),
      costs_(std::move(costs)),
      config_(config),
      htm_(config.htmSync) {
  CASCHED_CHECK(scheduler_ != nullptr, "agent needs a scheduler");
  CASCHED_CHECK(config_.controlLatency >= 0.0, "latency must be non-negative");
}

void Agent::registerServer(TaskDispatch* dispatch, const core::ServerModel& model,
                           std::vector<std::string> problems, double memSoftMB,
                           double memCapacityMB) {
  CASCHED_CHECK(dispatch != nullptr, "null dispatch registration");
  const core::ServerId id = htm_.intern(model.name);
  if (id >= servers_.size()) servers_.resize(id + 1);
  ServerState& slot = servers_[id];
  CASCHED_CHECK(!slot.registered || slot.removed,
                "server '" + model.name + "' registered twice");
  // Revival: the previous incarnation was deregistered (its HTM row is
  // gone); replace it wholesale, keeping the same id and candidate-order
  // position. Late notices for the old incarnation's in-flight tasks are
  // accepted like any other stale notice.
  const bool revival = slot.registered;
  ServerState state;
  state.dispatch = dispatch;
  state.model = model;
  state.problems = std::move(problems);
  state.solvesAll = std::any_of(state.problems.begin(), state.problems.end(),
                                [](const std::string& p) { return p == "*"; });
  state.registered = true;
  state.memSoftMB = memSoftMB;
  state.memCapacityMB = memCapacityMB;
  slot = std::move(state);
  if (!revival) serverOrder_.push_back(id);
  // A pre-warmed row (warmStartHtm adopted it from a snapshot before this
  // server dialed in) survives the registration: its learned speed correction
  // and in-flight trace are exactly what the warm start is for.
  if (!htm_.hasServer(id)) htm_.addServer(model);
}

void Agent::deregisterServer(const std::string& server) {
  ServerState& s = serverState(server);
  CASCHED_CHECK(!s.removed, "server '" + server + "' deregistered twice");
  s.removed = true;
  s.up = false;
  // Retire the HTM row; in-flight tasks keep running on the machine and their
  // completion notices are still accepted (without HTM bookkeeping).
  htm_.removeServer(server);
}

void Agent::setServerSpeedIndex(const std::string& server, double index) {
  costs_.setSpeedIndex(server, index);
  // The per-server cost cache memoizes computeCost results, which depend on
  // the speed index fallback.
  const core::ServerId id = htm_.findId(server);
  if (id != core::kInvalidServerId && id < servers_.size()) {
    servers_[id].costCache.clear();
  }
}

bool Agent::canSolve(const ServerState& s, const std::string& typeName) const {
  if (s.solvesAll) return true;
  for (const std::string& p : s.problems) {
    if (p == "*" || p == typeName) return true;
  }
  return false;
}

double Agent::computeCostCached(ServerState& s, const workload::TaskType& type) {
  for (const auto& [name, cost] : s.costCache) {
    if (name == type.name) return cost;
  }
  // First sight of this (server, type) pair: one string-keyed database lookup,
  // memoized so the decision path never touches it again.
  const double cost = costs_.computeCost(s.model.name, type.name, type.refSeconds);
  s.costCache.emplace_back(type.name, cost);
  return cost;
}

double Agent::loadEstimate(const ServerState& s) const {
  // NetSolve's two load-correction mechanisms (paper section 5.3): +1 for
  // each task assigned since the last report (the report cannot know about
  // them yet), -1 for each completion of a task the last report still counted.
  double estimate = s.reportedLoad;
  for (const auto& [taskId, assignedAt] : s.inFlight) {
    if (assignedAt > s.lastReportTime) estimate += 1.0;
  }
  estimate -= static_cast<double>(s.completedOldSinceReport);
  return std::max(0.0, estimate);
}

double Agent::loadEstimate(const std::string& server) const {
  return loadEstimate(serverState(server));
}

core::ServerId Agent::requireServerId(const std::string& name) const {
  const core::ServerId id = htm_.findId(name);
  CASCHED_CHECK(id != core::kInvalidServerId && id < servers_.size() &&
                    servers_[id].registered,
                "unknown server '" + name + "'");
  return id;
}

Agent::TaskState& Agent::taskStateFor(std::uint64_t taskId, bool* inserted) {
  if (std::uint32_t* slot = taskIndex_.find(taskId)) {
    *inserted = false;
    return taskSlots_[*slot];
  }
  taskIndex_.insert(taskId, static_cast<std::uint32_t>(taskSlots_.size()));
  taskSlots_.emplace_back();
  *inserted = true;
  return taskSlots_.back();
}

Agent::TaskState* Agent::findTask(std::uint64_t taskId) {
  std::uint32_t* slot = taskIndex_.find(taskId);
  return slot == nullptr ? nullptr : &taskSlots_[*slot];
}

void Agent::setExpectedTasks(std::size_t n) {
  // Pre-size the task tables: steady-state scheduling then never grows them.
  if (n > taskSlots_.capacity()) taskSlots_.reserve(n);
  taskIndex_.reserve(n);
}

void Agent::requestSchedule(const workload::TaskInstance& task) {
  scheduleBatch({&task, 1});
}

void Agent::scheduleBatch(std::span<const workload::TaskInstance> tasks) {
  if (tasks.empty()) return;
  // One trace refresh amortized over the whole batch: every preview's
  // copy-advance then starts from an already-advanced trace and becomes a
  // plain copy. advanceTo is idempotent at a fixed timestamp, so placing the
  // batch is bit-identical to sequential requestSchedule calls at the same
  // instant (each placement still sees the commits of the previous ones).
  if (scheduler_->usesHtm()) htm_.advanceAll(sim_.now());
  for (const workload::TaskInstance& task : tasks) scheduleOne(task);
}

void Agent::buildCandidates(const workload::TaskInstance& task) {
  // Build the candidate list in registration order (deterministic ties) into
  // the reusable scratch query: a warm decision allocates nothing.
  query_.taskId = task.index;
  query_.now = sim_.now();
  // Reply to the client + client's submission to the server.
  query_.startDelay = 2.0 * config_.controlLatency;
  query_.htm = scheduler_->usesHtm() ? &htm_ : nullptr;
  query_.candidates.clear();
  for (const core::ServerId id : serverOrder_) {
    ServerState& s = servers_[id];
    if (!s.up || !canSolve(s, task.type.name)) continue;
    core::CandidateServer c;
    c.id = id;
    c.dims.inMB = task.type.inMB;
    c.dims.outMB = task.type.outMB;
    c.dims.cpuSeconds = computeCostCached(s, task.type);
    c.reportedLoad = loadEstimate(s);
    double unloaded = c.dims.cpuSeconds;
    if (c.dims.inMB > 0) unloaded += s.model.latencyIn + c.dims.inMB / s.model.bwInMBps;
    else unloaded += s.model.latencyIn;
    if (c.dims.outMB > 0) unloaded += s.model.latencyOut + c.dims.outMB / s.model.bwOutMBps;
    else unloaded += s.model.latencyOut;
    c.unloadedDuration = unloaded;
    c.projectedResidentMB = s.projectedResidentMB;
    c.memSoftMB = s.memSoftMB;
    c.memCapacityMB = s.memCapacityMB;
    c.taskMemMB = task.type.memMB;
    query_.candidates.push_back(c);
  }
}

double Agent::meanLoadEstimate() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const core::ServerId id : serverOrder_) {
    const ServerState& s = servers_[id];
    if (!s.up || s.removed) continue;
    sum += loadEstimate(s);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::size_t Agent::liveServerCount() const {
  std::size_t n = 0;
  for (const core::ServerId id : serverOrder_) {
    const ServerState& s = servers_[id];
    if (s.up && !s.removed) ++n;
  }
  return n;
}

bool Agent::hasFeasibleServer(const std::string& typeName) {
  for (const core::ServerId id : serverOrder_) {
    ServerState& s = servers_[id];
    if (s.up && !s.removed && canSolve(s, typeName)) return true;
  }
  return false;
}

mesh::LocalView Agent::meshView(const workload::TaskInstance& task, std::uint32_t hops,
                                const mesh::MeshConfig& config) {
  mesh::LocalView view;
  view.feasible = hasFeasibleServer(task.type.name);
  view.now = sim_.now();
  view.meanLoad = meanLoadEstimate();
  view.hops = hops;
  if (!view.feasible || config.overloadThreshold <= 0.0) return view;
  // Predicted completion: a dry run of the scheduler on the current state
  // (no HTM commit, no dispatch, no counters).
  if (scheduler_->usesHtm()) htm_.advanceAll(sim_.now());
  buildCandidates(task);
  if (query_.candidates.empty()) return view;
  scheduler_->previewInto(query_, previewDecision_);
  if (!previewDecision_.chosen.has_value()) return view;
  const std::size_t chosen = *previewDecision_.chosen;
  if (chosen < previewDecision_.previews.size() &&
      previewDecision_.previews[chosen].completionNew > 0.0) {
    view.predictedCompletion = previewDecision_.previews[chosen].completionNew;
  } else if (chosen < previewDecision_.scores.size()) {
    // Load-based heuristics fill scores, not previews; the MCT-style score
    // is itself an estimated duration, so now + dispatch delay + score is
    // the best completion estimate available without an HTM.
    view.predictedCompletion = query_.now + query_.startDelay + previewDecision_.scores[chosen];
  }
  return view;
}

void Agent::scheduleOne(const workload::TaskInstance& task) {
  bool inserted = false;
  TaskState& state = taskStateFor(task.index, &inserted);
  if (inserted) state.instance = task;
  ++state.attempts;

  AgentInstruments& ins = AgentInstruments::get();
  obs::TraceBuffer& trace = obs::TraceBuffer::global();
  if (state.attempts == 1) {
    ins.submitted.inc();
    if (trace.enabled()) {
      trace.push({task.index, obs::TaskPhase::kSubmit, sim_.now(), 0.0, state.attempts,
                  "agent", task.type.name});
    }
  } else {
    ins.resubmissions.inc();
  }

  buildCandidates(task);

  if (query_.candidates.empty()) {
    // Nothing can run this task right now (every capable server is down).
    // Same retry budget as the failure path: at most 1 + maxRetries attempts.
    if (config_.faultTolerance && state.attempts <= config_.maxRetries) {
      LOG_DEBUG("no server for task " << task.index << ", retrying later");
      ins.noServerRetries.inc();
      workload::TaskInstance retry = task;
      sim_.scheduleAfter(config_.noServerRetryDelay,
                         [this, retry] { requestSchedule(retry); });
      return;
    }
    finishTask(state, metrics::TaskStatus::kLost);
    return;
  }

  scheduler_->chooseInto(query_, decision_);
  ++decisions_;
  ins.decisions.inc();
  CASCHED_CHECK(decision_.chosen.has_value(), "scheduler returned no choice");
  const std::size_t chosen = *decision_.chosen;
  const core::CandidateServer& target = query_.candidates[chosen];
  ServerState& server = servers_[target.id];

  state.server = target.id;
  state.scheduledAt = sim_.now();
  state.unloadedDuration = target.unloadedDuration;

  // Paper's step 6 ("tell the HTM the task is allocated"). The trace is kept
  // for every heuristic so prediction-accuracy statistics are always
  // available; non-HTM schedulers simply never read it when deciding.
  state.htmPredicted =
      htm_.commit(target.id, task.index, target.dims, sim_.now(), query_.startDelay);

  if (trace.enabled()) {
    trace.push({task.index, obs::TaskPhase::kPredict, sim_.now(), 0.0, state.attempts,
                "agent", util::strformat("sigma'=%.6g", state.htmPredicted)});
    trace.push({task.index, obs::TaskPhase::kDecide, sim_.now(), 0.0, state.attempts,
                "agent", htm_.serverName(target.id)});
  }

  obs::DecisionLog& decisionLog = obs::DecisionLog::global();
  if (decisionLog.enabled()) {
    obs::DecisionRecord record;
    record.taskId = task.index;
    record.time = query_.now;
    record.attempt = state.attempts;
    record.agent = decisionLabel_;
    record.heuristic = scheduler_->name();
    record.chosen = htm_.serverName(target.id);
    record.candidates.reserve(query_.candidates.size());
    for (std::size_t i = 0; i < query_.candidates.size(); ++i) {
      obs::DecisionCandidate c;
      c.server = htm_.serverName(query_.candidates[i].id);
      if (i < decision_.scores.size()) c.score = decision_.scores[i];
      if (i < decision_.previews.size()) {
        c.predictedCompletion = decision_.previews[i].completionNew;
      }
      c.reportedLoad = query_.candidates[i].reportedLoad;
      const ServerState& cs = servers_[query_.candidates[i].id];
      c.loadStaleness = cs.lastReportTime < 0.0 ? -1.0 : query_.now - cs.lastReportTime;
      record.candidates.push_back(std::move(c));
    }
    if (decisionAnnotator_) decisionAnnotator_(task.index, record);
    decisionLog.push(std::move(record));
  }

  auto flight = std::lower_bound(server.inFlight.begin(), server.inFlight.end(),
                                 task.index, flightBefore);
  server.inFlight.insert(flight, {task.index, sim_.now()});
  server.projectedResidentMB += task.type.memMB;

  psched::ExecRequest request;
  request.taskId = task.index;
  request.inMB = target.dims.inMB;
  request.cpuSeconds = target.dims.cpuSeconds;
  request.outMB = target.dims.outMB;
  request.memMB = task.type.memMB;
  if (trace.enabled()) {
    // The dispatch span covers the reply + submit latency to the server.
    trace.push({task.index, obs::TaskPhase::kDispatch, sim_.now(), query_.startDelay,
                state.attempts, "agent", htm_.serverName(target.id)});
  }

  TaskDispatch* dispatch = server.dispatch;
  sim_.scheduleAfter(query_.startDelay,
                     [dispatch, request] { dispatch->submitTask(request.taskId, request); });
}

void Agent::onLoadReport(const std::string& server, double load,
                         simcore::SimTime sampleTime) {
  ServerState& s = serverState(server);
  s.reportedLoad = load;
  s.lastReportTime = sampleTime;
  s.completedOldSinceReport = 0;
  s.peakReportedLoad = std::max(s.peakReportedLoad, load);
}

void Agent::onTaskCompleted(const std::string& server, std::uint64_t taskId,
                            simcore::SimTime completionTime, double unloadedDuration) {
  const core::ServerId sid = requireServerId(server);
  ServerState& s = servers_[sid];
  auto itFlight = std::lower_bound(s.inFlight.begin(), s.inFlight.end(), taskId,
                                   flightBefore);
  if (itFlight != s.inFlight.end() && itFlight->first == taskId) {
    if (itFlight->second <= s.lastReportTime) ++s.completedOldSinceReport;
    s.inFlight.erase(itFlight);
  }
  if (!s.removed) htm_.onTaskCompleted(sid, taskId, completionTime);

  TaskState* found = findTask(taskId);
  CASCHED_CHECK(found != nullptr, "completion notice for unknown task");
  TaskState& task = *found;
  if (task.terminal) return;  // late duplicate (possible after retries)
  s.projectedResidentMB = std::max(0.0, s.projectedResidentMB - task.instance.type.memMB);
  task.completion = completionTime;
  task.unloadedDuration = unloadedDuration;
  finishTask(task, metrics::TaskStatus::kCompleted);
}

void Agent::onTaskFailed(const std::string& server, std::uint64_t taskId) {
  const core::ServerId sid = requireServerId(server);
  ServerState& s = servers_[sid];
  auto itFlight = std::lower_bound(s.inFlight.begin(), s.inFlight.end(), taskId,
                                   flightBefore);
  if (itFlight != s.inFlight.end() && itFlight->first == taskId) {
    if (itFlight->second <= s.lastReportTime) ++s.completedOldSinceReport;
    s.inFlight.erase(itFlight);
  }
  if (!s.removed) htm_.onTaskFailed(sid, taskId, sim_.now());

  TaskState* found = findTask(taskId);
  CASCHED_CHECK(found != nullptr, "failure notice for unknown task");
  TaskState& task = *found;
  if (task.terminal) return;
  s.projectedResidentMB = std::max(0.0, s.projectedResidentMB - task.instance.type.memMB);

  if (config_.faultTolerance && task.attempts <= config_.maxRetries) {
    LOG_DEBUG("task " << taskId << " failed on " << server << ", re-submitting (attempt "
                      << task.attempts + 1 << ")");
    requestSchedule(task.instance);
    return;
  }
  finishTask(task, metrics::TaskStatus::kLost);
}

void Agent::onServerDown(const std::string& server) {
  const core::ServerId sid = requireServerId(server);
  ServerState& s = servers_[sid];
  s.up = false;
  s.projectedResidentMB = 0.0;
  s.inFlight.clear();
  s.reportedLoad = 0.0;
  if (!s.removed) htm_.onServerCollapsed(sid, sim_.now());
}

void Agent::onServerUp(const std::string& server) {
  ServerState& s = serverState(server);
  if (s.removed) return;  // departed servers never rejoin under the same name
  s.up = true;
  s.lastReportTime = -1.0;
  s.completedOldSinceReport = 0;
}

std::string Agent::serverNameOf(const TaskState& task) const {
  return task.server == core::kInvalidServerId ? std::string()
                                               : htm_.serverName(task.server);
}

void Agent::finishTask(TaskState& task, metrics::TaskStatus status) {
  CASCHED_CHECK(!task.terminal, "task finished twice");
  task.terminal = true;
  task.status = status;
  AgentInstruments& ins = AgentInstruments::get();
  obs::TraceBuffer& trace = obs::TraceBuffer::global();
  if (status == metrics::TaskStatus::kCompleted) {
    ins.completed.inc();
    ins.flow.observe(task.completion - task.instance.arrival);
    if (trace.enabled()) {
      trace.push({task.instance.index, obs::TaskPhase::kComplete, task.completion, 0.0,
                  task.attempts, serverNameOf(task), ""});
    }
  } else {
    ins.lost.inc();
    if (trace.enabled()) {
      trace.push({task.instance.index, obs::TaskPhase::kLost, sim_.now(), 0.0,
                  task.attempts, serverNameOf(task), ""});
    }
  }
  ++terminal_;
  if (onTerminal_) onTerminal_(makeOutcome(task.instance.index, task));
}

metrics::TaskOutcome Agent::makeOutcome(std::uint64_t taskId, const TaskState& state) const {
  metrics::TaskOutcome o;
  o.index = taskId;
  o.typeName = state.instance.type.name;
  o.server = serverNameOf(state);
  o.arrival = state.instance.arrival;
  o.scheduledAt = state.scheduledAt;
  o.completion = state.completion;
  o.unloadedDuration = state.unloadedDuration;
  o.htmPredictedCompletion = state.htmPredicted;
  o.attempts = state.attempts;
  o.status = state.status;
  return o;
}

std::vector<metrics::TaskOutcome> Agent::collectOutcomes() const {
  std::vector<metrics::TaskOutcome> out;
  out.reserve(taskSlots_.size());
  for (const TaskState& state : taskSlots_) {
    out.push_back(makeOutcome(state.instance.index, state));
  }
  // Slots are in first-request order; callers expect ascending task index.
  std::sort(out.begin(), out.end(),
            [](const metrics::TaskOutcome& a, const metrics::TaskOutcome& b) {
              return a.index < b.index;
            });
  return out;
}

std::size_t Agent::warmStartHtm(const core::HtmSnapshot& snapshot) {
  if (serverOrder_.empty()) {
    // Cold boot: adopt everything, stats and sync policy included (the
    // restarted agent resumes where the snapshotted one stopped).
    htm_.restore(snapshot);
    return snapshot.servers.size();
  }
  return adoptHtmRows(snapshot).size();
}

std::vector<std::string> Agent::adoptHtmRows(const core::HtmSnapshot& snapshot) {
  std::vector<std::string> adopted;
  for (const core::HtmServerSnapshot& row : snapshot.servers) {
    const core::ServerId id = htm_.findId(row.model.name);
    const bool live = id != core::kInvalidServerId && id < servers_.size() &&
                      servers_[id].registered && !servers_[id].removed;
    if (live) continue;  // live row: local truth
    htm_.restoreServer(row);
    adopted.push_back(row.model.name);
  }
  return adopted;
}

double Agent::peakReportedLoad(const std::string& server) const {
  return serverState(server).peakReportedLoad;
}

std::vector<std::uint64_t> Agent::inFlightTasks(const std::string& server) const {
  const core::ServerId id = htm_.findId(server);
  if (id == core::kInvalidServerId || id >= servers_.size() || !servers_[id].registered) {
    return {};
  }
  const ServerState& s = servers_[id];
  std::vector<std::uint64_t> ids;
  ids.reserve(s.inFlight.size());
  for (const auto& [taskId, assignedAt] : s.inFlight) ids.push_back(taskId);
  return ids;
}

}  // namespace casched::cas
