#pragma once
/// \file server_trace.hpp
/// Agent-side trace simulation of one server - the core of the Historical
/// Trace Manager (paper section 2.3). Replays the shared-resource model
/// analytically: every admitted task moves through latency -> input transfer
/// -> compute -> latency -> output transfer, transfers sharing the link and
/// computes sharing the CPU in equal parts. With noise off, predictions match
/// the ground-truth simulator to floating point (property-tested). Every
/// advance and prediction runs one event-driven drain that keeps a share
/// clock per resource class, so each phase end costs a queue operation
/// instead of a pass over every task in the trace.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/gantt.hpp"
#include "simcore/time.hpp"

namespace casched::core {

/// A task's dimensions on a given server: the agent's static information
/// (data volumes from the problem descriptor, unloaded compute seconds from
/// the cost database).
struct TaskDims {
  double inMB = 0.0;
  double cpuSeconds = 0.0;
  double outMB = 0.0;
};

/// What the agent knows about a server's hardware (peak performances sent at
/// registration, paper section 2.1).
struct ServerModel {
  std::string name;
  double bwInMBps = 10.0;
  double bwOutMBps = 10.0;
  double latencyIn = 0.0;
  double latencyOut = 0.0;
};

enum class TracePhase : std::uint8_t {
  kLatencyIn,
  kTransferIn,
  kCompute,
  kLatencyOut,
  kTransferOut,
  kDone,
};

/// Live state of one traced task.
struct TraceTask {
  std::uint64_t taskId = 0;
  TaskDims dims;
  TracePhase phase = TracePhase::kLatencyIn;
  double remaining = 0.0;  ///< remaining amount in the current phase
  simcore::SimTime admitted = 0.0;
};

/// One predicted completion, collected by the scratch-based prediction path.
struct PredictedEntry {
  std::uint64_t taskId = 0;
  simcore::SimTime completion = 0.0;
};

/// Reusable buffers of the equal-share drain: one queue of phase ends per
/// resource class (fixed delay, input link, CPU, output link), ordered by
/// share-clock tag. Owned by the caller - the HTM keeps one next to its
/// preview buffers - so a warm drain never allocates; a default-constructed
/// one serves a one-off call. Contents are meaningless between calls.
struct DrainScratch {
  struct Slot {
    double tag = 0.0;         ///< class clock value at which the phase ends
    std::uint32_t task = 0;   ///< index into the drained task vector
  };
  /// Live slots are [head, end), sorted by tag, soonest first: a phase end
  /// leaves by advancing `head`, and a new tag, usually one of the latest,
  /// lands near the end, so placing it shifts few slots.
  struct Queue {
    std::vector<Slot> slots;
    std::size_t head = 0;
  };
  std::array<Queue, 4> queues;
};

/// Copyable per-server trace; copies are how hypothetical mappings are
/// evaluated without disturbing the committed state.
class ServerTrace {
 public:
  explicit ServerTrace(ServerModel model);

  const ServerModel& model() const { return model_; }
  simcore::SimTime now() const { return now_; }
  std::size_t activeTasks() const { return tasks_.size(); }
  bool hasTask(std::uint64_t taskId) const;

  /// Bumped on every state mutation (advance that moves the clock, admit,
  /// remove, clear, restore). Lets callers memoize derived results - the
  /// HTM's preview cache keys on it.
  std::uint64_t version() const { return version_; }

  /// Integrates the equal-share execution up to `to`; tasks reaching kDone
  /// are dropped from the trace (their completion date is the simulated one).
  /// The scratch form reuses the caller's drain buffers.
  void advanceTo(simcore::SimTime to);
  void advanceTo(simcore::SimTime to, DrainScratch& scratch);

  /// Admits a task at time `at` (>= now; the trace advances first). The task
  /// begins its input latency after `startDelay` more seconds (models the
  /// agent->client->server submission path).
  void admit(std::uint64_t taskId, const TaskDims& dims, simcore::SimTime at,
             double startDelay = 0.0);

  /// Removes a task regardless of progress (completion notice under the
  /// drop-on-notice sync policy, failure notice, collapse). Returns false
  /// when the task is not in the trace (already simulated to completion).
  bool remove(std::uint64_t taskId);

  /// Drops every task (server collapse notice).
  void clear();

  /// Simulated completion date of every task currently in the trace, without
  /// mutating state.
  std::map<std::uint64_t, simcore::SimTime> predictCompletions() const;

  // --- scratch-based prediction (the zero-allocation hot path) ---
  // These operate on caller-owned vectors whose capacity is retained across
  // calls, so a warm caller predicts without touching the heap. They run the
  // same drain as advanceTo and predictCompletions, so a scratch-path result
  // equals the copy-path result for the same state.

  /// Copies the live task list into `tasks` (capacity reused) and advances
  /// the copy to `to`; `*t` receives the copy's clock (max(now(), to)).
  void copyAdvanced(std::vector<TraceTask>& tasks, simcore::SimTime* t,
                    simcore::SimTime to, DrainScratch& scratch) const;

  /// Drains `tasks` (consumed) from `t` to completion, appending one
  /// {taskId, completion} per task to `out` in completion order.
  void completeInto(std::vector<TraceTask>& tasks, simcore::SimTime t,
                    std::vector<PredictedEntry>& out, DrainScratch& scratch) const;

  /// Drains `tasks` (consumed) from `t` only until `taskId` completes and
  /// returns its completion date (infinity when the task is absent). The
  /// drain prefix is identical to completeInto's, so the returned date is
  /// bit-identical - this is the fast path for heuristics that need the new
  /// task's completion but no perturbations (HMCT).
  simcore::SimTime completeOne(std::vector<TraceTask>& tasks, simcore::SimTime t,
                               std::uint64_t taskId, DrainScratch& scratch) const;

  /// Builds the TraceTask admit() would append for these parameters when the
  /// trace clock already sits at the admit instant. Returns false for the
  /// degenerate all-empty task that completes instantly (admit() drops it).
  bool buildAdmitted(std::uint64_t taskId, const TaskDims& dims, simcore::SimTime at,
                     double startDelay, TraceTask* out) const;

  /// Full Gantt chart of the remaining execution (paper figure 1): one
  /// segment per (task, constant-share interval).
  GanttChart simulateGantt() const;

  /// Live task list in admission order (snapshot/persistence read access).
  const std::vector<TraceTask>& tasks() const { return tasks_; }

  /// Replaces the whole trace state from a snapshot: the task list (admission
  /// order preserved) and the trace clock. Validates phases and amounts.
  void restore(std::vector<TraceTask> tasks, simcore::SimTime now);

 private:
  /// The equal-share drain. Advances `tasks` in place from `*t` until `bound`
  /// (or until drained), invoking `onDone(task, when)` at completions and
  /// `onSegment(task, t0, t1, share)` for every constant-share interval.
  /// Callbacks are passed as concrete lambdas or nullptr so every call site
  /// inlines fully. When `stopTaskId` is non-null the drain returns right
  /// after that task completes, with its completion date in
  /// `*stopCompletion`, leaving `tasks` consumed.
  template <class DoneF, class SegF>
  void drain(std::vector<TraceTask>& tasks, simcore::SimTime* t, simcore::SimTime bound,
             DrainScratch& scratch, DoneF&& onDone, SegF&& onSegment,
             const std::uint64_t* stopTaskId, simcore::SimTime* stopCompletion) const;

  double phaseAmount(const TraceTask& task, TracePhase phase) const;
  void enterNextPhase(TraceTask& task) const;

  ServerModel model_;
  std::vector<TraceTask> tasks_;  // admission order (stable, deterministic)
  simcore::SimTime now_ = 0.0;
  std::uint64_t version_ = 0;
};

/// Phase name for rendering ("latency-in", "transfer-in", ...).
std::string tracePhaseName(TracePhase phase);

}  // namespace casched::core
