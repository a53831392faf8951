#include "core/htm.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace casched::core {

namespace {
constexpr double kPerturbEps = 1e-9;
/// EWMA gain for the kRescale speed correction.
constexpr double kRescaleAlpha = 0.2;
/// The preview's "what if" task; never collides with real (client-chosen) ids.
constexpr std::uint64_t kHypotheticalId = ~0ULL;

bool byTaskId(const PredictedEntry& a, const PredictedEntry& b) {
  return a.taskId < b.taskId;
}

/// Sorts by task id. Drains list completions in completion order, which for
/// a shallow trace is often id order already; skipping the sort call then
/// matters on the per-decision path.
void sortByTaskId(std::vector<PredictedEntry>& entries) {
  if (!std::is_sorted(entries.begin(), entries.end(), byTaskId)) {
    std::sort(entries.begin(), entries.end(), byTaskId);
  }
}
}  // namespace

SyncPolicy parseSyncPolicy(const std::string& name) {
  const std::string n = util::toLower(name);
  if (n == "predict-only" || n == "none") return SyncPolicy::kPredictOnly;
  if (n == "drop" || n == "drop-on-notice") return SyncPolicy::kDropOnNotice;
  if (n == "rescale") return SyncPolicy::kRescale;
  throw util::ConfigError("unknown HTM sync policy '" + name + "'");
}

std::string syncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kPredictOnly: return "predict-only";
    case SyncPolicy::kDropOnNotice: return "drop-on-notice";
    case SyncPolicy::kRescale: return "rescale";
  }
  return "?";
}

HistoricalTraceManager::HistoricalTraceManager(SyncPolicy policy) : policy_(policy) {}

void HistoricalTraceManager::addServer(const ServerModel& model) {
  const ServerId id = interner_.intern(model.name);
  if (id >= rows_.size()) rows_.resize(id + 1);
  CASCHED_CHECK(!rows_[id].has_value(),
                "server '" + model.name + "' already registered with the HTM");
  rows_[id].emplace(Entry{ServerTrace(model), 1.0, {}, {}});
}

ServerId HistoricalTraceManager::requireId(const std::string& server) const {
  const ServerId id = interner_.find(server);
  CASCHED_CHECK(hasServer(id), "unknown server '" + server + "'");
  return id;
}

void HistoricalTraceManager::removeServer(ServerId id) {
  CASCHED_CHECK(hasServer(id), "server id " + std::to_string(id) +
                                   " is not registered with the HTM");
  rows_[id].reset();
}

void HistoricalTraceManager::removeServer(const std::string& server) {
  const ServerId id = interner_.find(server);
  CASCHED_CHECK(hasServer(id),
                "server '" + server + "' is not registered with the HTM");
  rows_[id].reset();
}

std::vector<std::string> HistoricalTraceManager::serverNames() const {
  std::vector<std::string> names;
  for (ServerId id = 0; id < rows_.size(); ++id) {
    if (rows_[id].has_value()) names.push_back(interner_.name(id));
  }
  return names;
}

HistoricalTraceManager::Entry& HistoricalTraceManager::row(ServerId id) {
  CASCHED_CHECK(hasServer(id),
                "unknown server id " + std::to_string(id));
  return *rows_[id];
}

const HistoricalTraceManager::Entry& HistoricalTraceManager::row(ServerId id) const {
  CASCHED_CHECK(hasServer(id),
                "unknown server id " + std::to_string(id));
  return *rows_[id];
}

TaskDims HistoricalTraceManager::adjustedDims(const Entry& entry,
                                              const TaskDims& dims) const {
  if (policy_ != SyncPolicy::kRescale) return dims;
  TaskDims adjusted = dims;
  adjusted.cpuSeconds *= entry.speedRatio;
  return adjusted;
}

void HistoricalTraceManager::previewInto(ServerId id, const TaskDims& dims,
                                         simcore::SimTime now, double startDelay,
                                         Preview& out, bool perturbations) const {
  const Entry& entry = row(id);
  ++stats_.previews;
  out.server = id;
  out.sumPerturbation = 0.0;
  out.perturbedCount = 0;
  out.perTask.clear();
  const TaskDims adjusted = adjustedDims(entry, dims);
  PreviewMemo& memo = entry.memo;
  const std::uint64_t version = entry.trace.version();

  if (!perturbations) {
    // completionNew only: one drain, stopped at the hypothetical task's
    // completion (its prefix matches the full drain bit for bit), or no
    // drain at all when the memo already holds this preview.
    if (memo.matches(version, now, startDelay, adjusted)) {
      out.completionNew = memo.completionNew;
      return;
    }
    simcore::SimTime t;
    entry.trace.copyAdvanced(scratch_.base, &t, now, scratch_.drain);
    TraceTask hyp;
    const bool admitted =
        entry.trace.buildAdmitted(kHypotheticalId, adjusted, now, startDelay, &hyp);
    CASCHED_CHECK(admitted, "hypothetical task vanished from trace");
    scratch_.base.push_back(hyp);
    out.completionNew =
        entry.trace.completeOne(scratch_.base, t, kHypotheticalId, scratch_.drain);
    CASCHED_CHECK(out.completionNew != simcore::kTimeInfinity,
                  "hypothetical task vanished from trace");
    memo.remember(version, now, startDelay, adjusted, out.completionNew);
    memo.after.clear();
    return;
  }

  // Work on a copy advanced to `now`; the committed trace stays untouched
  // (it is advanced lazily on commits/notices). All buffers are reused.
  simcore::SimTime t;
  entry.trace.copyAdvanced(scratch_.base, &t, now, scratch_.drain);

  scratch_.work = scratch_.base;
  scratch_.before.clear();
  entry.trace.completeInto(scratch_.work, t, scratch_.before, scratch_.drain);

  TraceTask hyp;
  if (entry.trace.buildAdmitted(kHypotheticalId, adjusted, now, startDelay, &hyp)) {
    scratch_.base.push_back(hyp);
  }
  scratch_.work = scratch_.base;
  scratch_.after.clear();
  entry.trace.completeInto(scratch_.work, t, scratch_.after, scratch_.drain);

  // Merge in ascending task-id order (kHypotheticalId sorts last).
  sortByTaskId(scratch_.before);
  sortByTaskId(scratch_.after);

  CASCHED_CHECK(!scratch_.after.empty() &&
                    scratch_.after.back().taskId == kHypotheticalId,
                "hypothetical task vanished from trace");
  out.completionNew = scratch_.after.back().completion;
  std::size_t ai = 0;
  for (const PredictedEntry& b : scratch_.before) {
    while (ai < scratch_.after.size() && scratch_.after[ai].taskId < b.taskId) ++ai;
    CASCHED_CHECK(ai < scratch_.after.size() &&
                      scratch_.after[ai].taskId == b.taskId,
                  "existing task vanished from trace");
    const double delta = scratch_.after[ai].completion - b.completion;
    out.perTask.push_back(Perturbation{b.taskId, delta});
    out.sumPerturbation += delta;
    if (delta > kPerturbEps) ++out.perturbedCount;
  }
  // Keep the post-admission drain for commit; the swap hands the memo's old
  // buffer back to the scratch, so neither side allocates.
  memo.remember(version, now, startDelay, adjusted, out.completionNew);
  memo.after.swap(scratch_.after);
}

Preview HistoricalTraceManager::preview(ServerId id, const TaskDims& dims,
                                        simcore::SimTime now, double startDelay) const {
  Preview p;
  previewInto(id, dims, now, startDelay, p);
  return p;
}

Preview HistoricalTraceManager::preview(const std::string& server, const TaskDims& dims,
                                        simcore::SimTime now, double startDelay) const {
  return preview(requireId(server), dims, now, startDelay);
}

simcore::SimTime HistoricalTraceManager::commit(ServerId id, std::uint64_t taskId,
                                                const TaskDims& dims,
                                                simcore::SimTime now, double startDelay) {
  Entry& entry = row(id);
  const TaskDims adjusted = adjustedDims(entry, dims);
  PreviewMemo& memo = entry.memo;
  const bool previewed = !memo.after.empty() &&
                         memo.matches(entry.trace.version(), now, startDelay, adjusted);
  entry.trace.advanceTo(now, scratch_.drain);  // admit's own advance is then a no-op
  entry.trace.admit(taskId, adjusted, now, startDelay);
  // Refresh the prediction of EVERY task on this server: the paper's Table 1
  // compares real completion dates against the HTM's final simulation, which
  // accounts for all tasks mapped before each completion (the new task
  // perturbs its neighbours' dates).
  if (previewed) {
    // The full preview of this very mapping drained the same state: take its
    // list and give the hypothetical entry (sorted last) the real id.
    scratch_.after.swap(memo.after);
    memo.after.clear();
    scratch_.after.back().taskId = taskId;
    const auto last = scratch_.after.end() - 1;
    std::rotate(std::lower_bound(scratch_.after.begin(), last, *last, byTaskId), last,
                scratch_.after.end());
  } else {
    scratch_.work = entry.trace.tasks();
    scratch_.after.clear();
    entry.trace.completeInto(scratch_.work, entry.trace.now(), scratch_.after,
                             scratch_.drain);
    sortByTaskId(scratch_.after);
  }

  simcore::SimTime predictedNew = simcore::kTimeInfinity;
  std::vector<PredictedRow>& pred = entry.predicted;
  std::size_t pi = 0;
  for (const PredictedEntry& e : scratch_.after) {
    while (pi < pred.size() && pred[pi].taskId < e.taskId) ++pi;
    if (pi < pred.size() && pred[pi].taskId == e.taskId) {
      pred[pi].predicted = e.completion;
    } else {
      pred.insert(pred.begin() + static_cast<std::ptrdiff_t>(pi),
                  PredictedRow{e.taskId, e.completion, now + startDelay});
    }
    if (e.taskId == taskId) predictedNew = e.completion;
  }
  ++stats_.commits;
  return predictedNew;
}

simcore::SimTime HistoricalTraceManager::commit(const std::string& server,
                                                std::uint64_t taskId, const TaskDims& dims,
                                                simcore::SimTime now, double startDelay) {
  return commit(requireId(server), taskId, dims, now, startDelay);
}

void HistoricalTraceManager::advanceAll(simcore::SimTime now) {
  for (std::optional<Entry>& entry : rows_) {
    if (entry.has_value()) entry->trace.advanceTo(now, scratch_.drain);
  }
}

void HistoricalTraceManager::onTaskCompleted(ServerId id, std::uint64_t taskId,
                                             simcore::SimTime actualCompletion) {
  Entry& entry = row(id);
  ++stats_.completionNotices;

  std::vector<PredictedRow>& pred = entry.predicted;
  auto itPred = std::lower_bound(
      pred.begin(), pred.end(), taskId,
      [](const PredictedRow& r, std::uint64_t tid) { return r.taskId < tid; });
  if (itPred != pred.end() && itPred->taskId == taskId) {
    const double predicted = itPred->predicted;
    const double admitted = itPred->admitted;
    const double err = std::abs(actualCompletion - predicted);
    const double actualDuration = std::max(1e-9, actualCompletion - admitted);
    stats_.absErrorSum += err;
    stats_.relErrorSum += err / actualDuration;
    ++stats_.errorSamples;
    if (policy_ == SyncPolicy::kRescale) {
      const double predictedDuration = std::max(1e-9, predicted - admitted);
      const double ratio = actualDuration / predictedDuration;
      entry.speedRatio = (1.0 - kRescaleAlpha) * entry.speedRatio + kRescaleAlpha * ratio;
      entry.speedRatio = std::clamp(entry.speedRatio, 0.2, 5.0);
    }
    pred.erase(itPred);
  }

  if (policy_ == SyncPolicy::kPredictOnly) return;
  entry.trace.advanceTo(actualCompletion, scratch_.drain);
  entry.trace.remove(taskId);  // no-op when the simulation already retired it
}

void HistoricalTraceManager::onTaskCompleted(const std::string& server,
                                             std::uint64_t taskId,
                                             simcore::SimTime actualCompletion) {
  onTaskCompleted(requireId(server), taskId, actualCompletion);
}

void HistoricalTraceManager::onTaskFailed(ServerId id, std::uint64_t taskId,
                                          simcore::SimTime now) {
  Entry& entry = row(id);
  ++stats_.failureNotices;
  entry.trace.advanceTo(now, scratch_.drain);
  entry.trace.remove(taskId);
  std::vector<PredictedRow>& pred = entry.predicted;
  auto it = std::lower_bound(
      pred.begin(), pred.end(), taskId,
      [](const PredictedRow& r, std::uint64_t tid) { return r.taskId < tid; });
  if (it != pred.end() && it->taskId == taskId) pred.erase(it);
}

void HistoricalTraceManager::onTaskFailed(const std::string& server,
                                          std::uint64_t taskId, simcore::SimTime now) {
  onTaskFailed(requireId(server), taskId, now);
}

void HistoricalTraceManager::onServerCollapsed(ServerId id, simcore::SimTime now) {
  Entry& entry = row(id);
  entry.trace.advanceTo(now, scratch_.drain);
  entry.trace.clear();
  entry.predicted.clear();
}

void HistoricalTraceManager::onServerCollapsed(const std::string& server,
                                               simcore::SimTime now) {
  onServerCollapsed(requireId(server), now);
}

std::map<std::uint64_t, simcore::SimTime> HistoricalTraceManager::predictedCompletions(
    const std::string& server, simcore::SimTime now) {
  Entry& entry = row(requireId(server));
  entry.trace.advanceTo(now, scratch_.drain);
  return entry.trace.predictCompletions();
}

GanttChart HistoricalTraceManager::gantt(const std::string& server, simcore::SimTime now) {
  Entry& entry = row(requireId(server));
  entry.trace.advanceTo(now, scratch_.drain);
  return entry.trace.simulateGantt();
}

std::size_t HistoricalTraceManager::activeTasks(const std::string& server) const {
  return row(requireId(server)).trace.activeTasks();
}

double HistoricalTraceManager::speedCorrection(const std::string& server) const {
  return row(requireId(server)).speedRatio;
}

const ServerTrace& HistoricalTraceManager::trace(const std::string& server) const {
  return row(requireId(server)).trace;
}

}  // namespace casched::core
