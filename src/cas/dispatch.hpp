#pragma once
/// \file dispatch.hpp
/// Where the agent sends accepted work. The simulation wires the agent
/// directly to in-process ServerNode objects; the distributed runtime
/// (src/net) substitutes links that encode the submission as a kTaskSubmit
/// wire message. The agent itself never knows the difference.

#include <cstdint>

#include "psched/task_exec.hpp"

namespace casched::cas {

/// The agent-facing side of one registered server: a sink for task
/// submissions. Implementations must outlive their registration with the
/// agent (the agent keeps a non-owning pointer).
class TaskDispatch {
 public:
  virtual ~TaskDispatch() = default;

  /// Delivers one task submission (already delayed by the submission-path
  /// latency in the simulation; immediate over the wire, where the network
  /// itself is the latency).
  virtual void submitTask(std::uint64_t taskId, const psched::ExecRequest& request) = 0;
};

}  // namespace casched::cas
