#pragma once
/// \file agent_node.hpp
/// One mesh agent's bookkeeping with no I/O: events in, decisions out. The
/// node alone owns an agent's per-task mesh state - parked queue, tasks
/// handed off to peers, tasks placed here for a peer with their origin tags,
/// mesh counters - and holds no socket, clock, simulator or wire type. Its
/// owner asks the scheduling core (cas::Agent) what the node needs and
/// carries out its decisions: cas::GridSystem as simulator events,
/// net::AgentDaemon as frames. A task has an entry while parked, handed off
/// or placed here for a peer, until its terminal or until the node hands it
/// back (forwardDenied, peerLost); a drained node holds none.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mesh/router.hpp"
#include "metrics/record.hpp"
#include "workload/metatask.hpp"

namespace casched::mesh {

/// A task handed back to the caller, with its sender ("" for a client).
struct HeldTask {
  workload::TaskInstance task;
  std::string fromAgent;
  bool placeHere = false;  ///< forwardDenied: run it here rather than deny
};

struct StealPlacement {
  std::vector<workload::TaskInstance> place;  ///< schedule these here
  std::vector<std::uint64_t> refused;         ///< answer each with a failure
  const char* reason = "";
};

struct TerminalRelay {
  bool handedOff = false;  ///< ran at a peer: relay it to the requester
  std::string fromAgent;   ///< next hop back towards the client ("" = client)
};

class AgentNode {
 public:
  AgentNode(MeshConfig config, std::string name);

  const MeshConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

  /// A request from a client (`fromAgent` empty) or forwarded by peer
  /// `fromAgent`. The sender is skipped among `peers` (no straight bounce
  /// back). kLocal: place it now. kForward: send it to the peer with digest
  /// index `peer`, hops + 1. kPark: queued for a steal. kDeny: nothing is
  /// held; the caller answers (or retries later) and counts it with denied().
  RouteDecision route(const workload::TaskInstance& task, const std::string& fromAgent,
                      const LocalView& local, std::span<const PeerDigest> peers);
  void denied() { ++stats_.forwardDenies; }

  /// The peer a task was forwarded to refused it: the task comes back, to be
  /// placed here when `feasibleHere` accepts it, else denied to its sender.
  std::optional<HeldTask> forwardDenied(
      std::uint64_t taskId, const std::function<bool(const workload::TaskInstance&)>& feasibleHere);

  /// An idle agent (live servers, nothing parked) names the peer with the
  /// most parked work, by digest index.
  std::optional<std::size_t> stealTarget(std::size_t liveServers,
                                         std::span<const PeerDigest> peers) const;
  /// Hands up to `capacity` parked tasks, oldest first, off to `thief`.
  std::vector<workload::TaskInstance> stealRequested(const std::string& thief,
                                                     std::size_t capacity);
  /// Places `victim`'s grant here, refusing ids this node holds or
  /// `heldElsewhere` knows (the scheduling core's), or all without a mesh.
  StealPlacement stealGranted(const std::string& victim,
                              std::vector<workload::TaskInstance> tasks,
                              const std::function<bool(std::uint64_t)>& heldElsewhere);

  /// The tasks handed to `peer`, whose link is gone, to be routed again.
  std::vector<HeldTask> peerLost(const std::string& peer);
  /// `taskId` reached a terminal state here or at the peer it went to.
  TerminalRelay terminal(std::uint64_t taskId);

  bool holds(std::uint64_t taskId) const { return tasks_.contains(taskId); }
  /// Decision-log origin: "forward:<agent>", "steal:<agent>" or "local".
  std::string originOf(std::uint64_t taskId) const;
  const std::deque<workload::TaskInstance>& parked() const { return parked_; }
  std::size_t entryCount() const { return tasks_.size(); }
  const metrics::MeshSummary& stats() const { return stats_; }

 private:
  enum class State : std::uint8_t { kPlaced, kParked, kHandedOff };
  struct Entry {
    State state = State::kPlaced;
    std::string fromAgent;
    std::string peer;     ///< kHandedOff: the peer now responsible
    bool stolen = false;  ///< kPlaced: origin is a steal, not a forward
    workload::TaskInstance task;  ///< kHandedOff: for a bounce or a reclaim
  };

  MeshConfig config_;
  std::string name_;
  std::unordered_map<std::uint64_t, Entry> tasks_;
  std::deque<workload::TaskInstance> parked_;  ///< arrival order
  std::vector<PeerDigest> candidates_;         ///< route() scratch
  metrics::MeshSummary stats_;
};

}  // namespace casched::mesh
