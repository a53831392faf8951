#pragma once
/// \file htm.hpp
/// The Historical Trace Manager (paper section 2.3): keeps one ServerTrace
/// per registered server, answers "what happens if I map this task there?"
/// with the predicted completion of the new task (sigma'_new), the per-task
/// perturbations pi_j = sigma'_j - sigma_j, and their sum - the quantities
/// driving HMCT, MP, MSF and MNI (paper figures 2-4).
///
/// Server rows live in a contiguous vector indexed by interned ServerId (the
/// HTM owns the name<->id table; the agent shares its id space through it),
/// and the preview/commit hot path runs entirely on reusable scratch buffers -
/// steady-state decisions never allocate. String-keyed overloads remain for
/// the edges (registry, CLI, examples, wire decode).
///
/// Synchronization with reality (paper section 7's future work) is pluggable:
/// completion notices can be ignored, used to drop tasks from the trace, or
/// additionally used to learn a per-server speed correction.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/server_id.hpp"
#include "core/server_trace.hpp"
#include "simcore/time.hpp"

namespace casched::core {

/// How the HTM digests completion notices from servers.
enum class SyncPolicy : std::uint8_t {
  /// Pure simulation: notices are ignored (tasks leave the trace when the
  /// simulation says so). Under noise the trace drifts - the paper's
  /// motivation for better synchronization.
  kPredictOnly,
  /// A completion notice removes the task from the trace if still present
  /// (default; mirrors NetSolve's completion messages).
  kDropOnNotice,
  /// kDropOnNotice plus an EWMA speed correction: observed actual/predicted
  /// duration ratios scale the compute cost of future admissions.
  kRescale,
};

SyncPolicy parseSyncPolicy(const std::string& name);
std::string syncPolicyName(SyncPolicy policy);

/// Perturbation of one already-mapped task (paper's pi_j).
struct Perturbation {
  std::uint64_t taskId = 0;
  double delta = 0.0;
};

/// Result of previewing a hypothetical mapping.
struct Preview {
  ServerId server = kInvalidServerId;
  simcore::SimTime completionNew = 0.0;  ///< sigma'_{n+1}: new task's completion
  double sumPerturbation = 0.0;          ///< sum_j pi_j
  std::size_t perturbedCount = 0;        ///< |{j : pi_j > eps}| (for MNI)
  std::vector<Perturbation> perTask;     ///< individual pi_j, task-id order
};

/// Prediction bookkeeping for accuracy statistics and the rescale policy.
struct HtmStats {
  std::uint64_t previews = 0;
  std::uint64_t commits = 0;
  std::uint64_t completionNotices = 0;
  std::uint64_t failureNotices = 0;
  /// Accumulated |actual - predicted| completion error and count, from
  /// completion notices of tasks with a recorded prediction.
  double absErrorSum = 0.0;
  double relErrorSum = 0.0;  ///< |err| / actual duration (the paper's Table 1 %)
  std::uint64_t errorSamples = 0;

  double meanAbsError() const {
    return errorSamples == 0 ? 0.0 : absErrorSum / static_cast<double>(errorSamples);
  }
  double meanRelErrorPercent() const {
    return errorSamples == 0 ? 0.0
                             : 100.0 * relErrorSum / static_cast<double>(errorSamples);
  }
};

struct HtmSnapshot;
struct HtmServerSnapshot;

class HistoricalTraceManager {
 public:
  explicit HistoricalTraceManager(SyncPolicy policy = SyncPolicy::kDropOnNotice);

  // --- identity ---
  /// Id for `name`, interning it on first sight. Interning alone does NOT
  /// create a trace row (addServer does); ids are dense, append-only and
  /// never reused, so a departed server that re-registers gets its old id.
  ServerId intern(const std::string& name) { return interner_.intern(name); }
  /// Id for `name`, or kInvalidServerId when never interned.
  ServerId findId(const std::string& name) const { return interner_.find(name); }
  const std::string& serverName(ServerId id) const { return interner_.name(id); }

  void addServer(const ServerModel& model);
  /// Retires a server's trace row (dynamic membership: the server left the
  /// grid). Pending predictions for its tasks are discarded.
  void removeServer(ServerId id);
  void removeServer(const std::string& server);
  bool hasServer(ServerId id) const {
    return id < rows_.size() && rows_[id].has_value();
  }
  bool hasServer(const std::string& server) const { return hasServer(findId(server)); }
  /// Names of live rows, in id (registration) order.
  std::vector<std::string> serverNames() const;

  /// Simulates mapping a task of `dims` on the server: the task is admitted
  /// at `now + startDelay` (submission path latency). Does not mutate the
  /// trace. The Into form reuses `out`'s buffers and the HTM's own scratch,
  /// so a warm call performs no heap allocation. With `perturbations` false
  /// only completionNew is computed (sumPerturbation/perturbedCount/perTask
  /// come back zeroed) and the simulation stops as soon as the hypothetical
  /// task finishes - the fast path for HMCT, whose score ignores pi_j.
  /// completionNew is bit-identical either way.
  void previewInto(ServerId id, const TaskDims& dims, simcore::SimTime now,
                   double startDelay, Preview& out, bool perturbations = true) const;
  Preview preview(ServerId id, const TaskDims& dims, simcore::SimTime now,
                  double startDelay = 0.0) const;
  Preview preview(const std::string& server, const TaskDims& dims,
                  simcore::SimTime now, double startDelay = 0.0) const;

  /// Records that `taskId` was mapped on the server (paper's "tell the HTM").
  /// Returns the predicted completion date of the new task.
  simcore::SimTime commit(ServerId id, std::uint64_t taskId, const TaskDims& dims,
                          simcore::SimTime now, double startDelay = 0.0);
  simcore::SimTime commit(const std::string& server, std::uint64_t taskId,
                          const TaskDims& dims, simcore::SimTime now,
                          double startDelay = 0.0);

  /// Advances every live trace to `now`. Called once per scheduling batch so
  /// the per-candidate previews start from already-advanced traces (their
  /// copy-advance becomes a no-op).
  void advanceAll(simcore::SimTime now);

  /// Completion notice from the real system; behaviour depends on SyncPolicy.
  void onTaskCompleted(ServerId id, std::uint64_t taskId,
                       simcore::SimTime actualCompletion);
  void onTaskCompleted(const std::string& server, std::uint64_t taskId,
                       simcore::SimTime actualCompletion);

  /// Failure notice: the task is gone from the server (always honoured).
  void onTaskFailed(ServerId id, std::uint64_t taskId, simcore::SimTime now);
  void onTaskFailed(const std::string& server, std::uint64_t taskId,
                    simcore::SimTime now);

  /// Collapse notice: the server lost every running task.
  void onServerCollapsed(ServerId id, simcore::SimTime now);
  void onServerCollapsed(const std::string& server, simcore::SimTime now);

  /// Current predicted completion dates on a server (advances the trace).
  std::map<std::uint64_t, simcore::SimTime> predictedCompletions(
      const std::string& server, simcore::SimTime now);

  /// Gantt chart of the committed trace of a server at `now` (figure 1).
  GanttChart gantt(const std::string& server, simcore::SimTime now);

  std::size_t activeTasks(ServerId id) const { return row(id).trace.activeTasks(); }
  std::size_t activeTasks(const std::string& server) const;
  double speedCorrection(ServerId id) const { return row(id).speedRatio; }
  double speedCorrection(const std::string& server) const;
  SyncPolicy policy() const { return policy_; }
  const HtmStats& stats() const { return stats_; }

  /// Read access for diagnostics/tests.
  const ServerTrace& trace(ServerId id) const { return row(id).trace; }
  const ServerTrace& trace(const std::string& server) const;

  // --- snapshot/persistence (src/core/htm_snapshot.hpp) ---
  /// Full serializable state: policy, stats, and every server row (rows
  /// ordered by name, matching the historical on-disk order).
  HtmSnapshot snapshot() const;
  /// Replaces ALL state (policy, stats, rows) from a snapshot - the restarted
  /// agent's warm start. Existing rows are discarded; the id table persists
  /// (ids are never reused).
  void restore(const HtmSnapshot& snapshot);
  /// Replaces or creates one server row from a snapshot - how a replica
  /// adopts a peer's learned trace for a server it does not serve (yet).
  void restoreServer(const HtmServerSnapshot& snapshot);

 private:
  /// Last committed prediction of one task, kept sorted by taskId.
  struct PredictedRow {
    std::uint64_t taskId = 0;
    simcore::SimTime predicted = 0.0;
    simcore::SimTime admitted = 0.0;
  };

  /// Memo of the last preview of a row. A preview is a pure function of
  /// (trace state, now, adjusted dims, startDelay); the trace version stands
  /// in for its state, so repeated previews of an unchanged server - the
  /// common case inside a placement batch, where each decision mutates
  /// exactly one trace - are answered without re-simulating. A full preview
  /// also leaves its post-admission drain here: committing the same mapping
  /// drains exactly that state again, so commit takes the list instead.
  struct PreviewMemo {
    bool valid = false;
    std::uint64_t traceVersion = 0;
    simcore::SimTime now = 0.0;
    double startDelay = 0.0;
    TaskDims dims;  ///< adjusted dims (captures speedRatio changes)
    simcore::SimTime completionNew = 0.0;
    /// Every completion with the hypothetical task admitted, sorted by task
    /// id; empty unless a full preview filled it.
    std::vector<PredictedEntry> after;

    bool matches(std::uint64_t version, simcore::SimTime at, double delay,
                 const TaskDims& adjusted) const {
      return valid && traceVersion == version && now == at && startDelay == delay &&
             dims.inMB == adjusted.inMB && dims.cpuSeconds == adjusted.cpuSeconds &&
             dims.outMB == adjusted.outMB;
    }
    void remember(std::uint64_t version, simcore::SimTime at, double delay,
                  const TaskDims& adjusted, simcore::SimTime completion) {
      valid = true;
      traceVersion = version;
      now = at;
      startDelay = delay;
      dims = adjusted;
      completionNew = completion;
    }
  };

  struct Entry {
    ServerTrace trace;
    /// EWMA of actual/predicted duration ratio (kRescale).
    double speedRatio = 1.0;
    std::vector<PredictedRow> predicted;  ///< sorted by taskId
    mutable PreviewMemo memo;             ///< previewInto is logically const
  };

  /// Reusable buffers for the preview/commit scratch path; capacity is
  /// retained across calls. Single-threaded by design, like the engine.
  struct Scratch {
    std::vector<TraceTask> base;
    std::vector<TraceTask> work;
    std::vector<PredictedEntry> before;
    std::vector<PredictedEntry> after;
    DrainScratch drain;
  };

  Entry& row(ServerId id);
  const Entry& row(ServerId id) const;
  ServerId requireId(const std::string& server) const;
  TaskDims adjustedDims(const Entry& entry, const TaskDims& dims) const;

  SyncPolicy policy_;
  ServerInterner interner_;
  std::vector<std::optional<Entry>> rows_;  ///< indexed by ServerId
  mutable Scratch scratch_;
  mutable HtmStats stats_;  // preview() is logically const but counted
};

}  // namespace casched::core
