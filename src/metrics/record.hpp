#pragma once
/// \file record.hpp
/// Per-run observational data: one outcome per metatask task plus per-server
/// summaries. Everything the paper's metrics (section 3) need is here.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "simcore/time.hpp"

namespace casched::metrics {

enum class TaskStatus : std::uint8_t {
  kCompleted,  ///< finished and returned its output
  kLost,       ///< failed and (if fault tolerance was on) exhausted retries
};

/// Outcome of one task of the metatask.
struct TaskOutcome {
  std::uint64_t index = 0;      ///< position in the metatask
  std::string typeName;
  std::string server;           ///< final server it ran on ("" when lost)
  simcore::SimTime arrival = 0.0;
  simcore::SimTime scheduledAt = -1.0;
  simcore::SimTime completion = -1.0;       ///< valid when kCompleted
  double unloadedDuration = 0.0;            ///< rho on the final server
  simcore::SimTime htmPredictedCompletion = -1.0;  ///< last committed sigma'
  int attempts = 0;                         ///< 1 + retries
  TaskStatus status = TaskStatus::kLost;

  double flow() const { return completion - arrival; }
  double stretch() const {
    return unloadedDuration > 0.0 ? flow() / unloadedDuration : 0.0;
  }
};

/// Server-membership events applied during a run (scenario churn timeline).
struct ChurnSummary {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t crashes = 0;
  std::uint64_t slowdowns = 0;
  std::uint64_t links = 0;  ///< link-bandwidth churn episodes

  std::uint64_t total() const {
    return joins + leaves + crashes + slowdowns + links;
  }
};

/// Mesh-routing events applied during a run (multi-agent mesh deployments;
/// all-zero for the paper's single agent).
struct MeshSummary {
  std::uint64_t forwards = 0;       ///< requests transferred to a peer agent
  std::uint64_t forwardDenies = 0;  ///< denies sent, to clients or forwarding agents
  std::uint64_t steals = 0;         ///< tasks pulled off a peer's parked queue
  std::uint64_t parked = 0;         ///< tasks ever parked awaiting a steal

  std::uint64_t total() const { return forwards + forwardDenies + steals + parked; }
  MeshSummary& operator+=(const MeshSummary& other) {
    forwards += other.forwards;
    forwardDenies += other.forwardDenies;
    steals += other.steals;
    parked += other.parked;
    return *this;
  }
};

/// Per-server aggregate over a run.
struct ServerSummary {
  std::uint64_t tasksCompleted = 0;
  std::uint64_t tasksFailed = 0;
  std::uint64_t collapses = 0;
  double peakResidentMB = 0.0;
  double busySeconds = 0.0;
  double peakLoadReported = 0.0;
};

/// Full result of executing one metatask under one heuristic.
struct RunResult {
  std::string heuristic;
  std::string metataskName;
  std::vector<TaskOutcome> tasks;          ///< ordered by metatask index
  std::map<std::string, ServerSummary> servers;
  simcore::SimTime endTime = 0.0;
  std::uint64_t simulatedEvents = 0;
  double htmMeanRelErrorPercent = 0.0;     ///< prediction accuracy (Table 1)
  ChurnSummary churn;                      ///< membership events applied
  MeshSummary mesh;                        ///< mesh-routing events applied

  std::size_t completedCount() const;
  std::size_t lostCount() const;
};

}  // namespace casched::metrics
