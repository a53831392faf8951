#pragma once
/// \file router.hpp
/// The mesh routing decision: given the local partition's state and the
/// latest peer digests, decide whether a schedule request is placed locally,
/// forwarded to the least-loaded capable peer, parked for work-stealing, or
/// denied. mesh::AgentNode (agent_node.hpp) is its one caller, so the
/// simulator and the live daemons apply one policy; that is what makes the
/// sim/live count-agreement invariant hold for mesh scenarios.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "scenario/spec.hpp"

namespace casched::mesh {

/// The run-time knobs of a [mesh] section; the fields mean what they mean
/// in scenario::MeshSpec. Disabled, every client request is placed locally
/// and peers get no mesh service (forwards denied, steal grants refused).
struct MeshConfig {
  bool enabled = false;
  bool forwarding = true;
  std::uint32_t hopLimit = 1;      ///< transfers per request; no ping-pong
  double overloadThreshold = 0.0;  ///< <= 0: no overload trigger
  double stealPeriod = 0.0;        ///< <= 0: no stealing, hence no parking
  std::size_t stealBatch = 4;

  bool stealing() const { return stealPeriod > 0.0; }
  static MeshConfig from(const scenario::MeshSpec& spec);
};

/// One peer's advertised state. Live daemons fill this from the latest
/// kAgentSync digest (stale by up to one sync period); the simulator reads
/// the peer agent directly. `index` is the peer's slot in the caller's peer
/// table and is echoed back in RouteDecision::peer.
struct PeerDigest {
  std::size_t index = 0;
  std::string name;  ///< the peer agent's name (hand-off bookkeeping)
  double meanLoad = 0.0;
  std::uint32_t liveServers = 0;
  std::uint32_t queuedTasks = 0;
};

/// The local partition's state at decision time.
struct LocalView {
  /// At least one live local server can solve the request's problem.
  bool feasible = false;
  /// Best predicted completion (absolute time) of the request placed locally;
  /// empty when not feasible or the scheduler could not preview.
  std::optional<double> predictedCompletion;
  double now = 0.0;
  double meanLoad = 0.0;
  /// Transfers this request already took (0 for a fresh client request).
  std::uint32_t hops = 0;
};

enum class RouteKind : std::uint8_t {
  kLocal,    ///< place on the local partition
  kForward,  ///< hand to peers[decision.peer]
  kPark,     ///< queue undispatched, awaiting a steal
  kDeny,     ///< reply schedule-deny; nobody can run this
};

struct RouteDecision {
  RouteKind kind = RouteKind::kLocal;
  std::size_t peer = 0;   ///< valid when kind == kForward
  const char* reason = "";  ///< stable tag for accounting/log lines
};

/// The mesh policy. `peers` must not contain the agent that sent this request
/// to us (AgentNode filters it; a request never bounces straight back).
///
/// Order of play: a feasible, non-overloaded request is placed locally.
/// Otherwise forwarding (if enabled and hops remain) targets the least-loaded
/// peer that has live servers - for the overload trigger only a peer less
/// loaded than us is worth the hop. A request nobody can take is parked when
/// stealing is on, denied otherwise; a feasible-but-overloaded request with
/// no better peer just runs locally.
RouteDecision decideRoute(const MeshConfig& config, const LocalView& local,
                          std::span<const PeerDigest> peers);

}  // namespace casched::mesh
