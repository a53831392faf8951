#include "mesh/router.hpp"

namespace casched::mesh {

MeshConfig MeshConfig::from(const scenario::MeshSpec& spec) {
  return {spec.enabled,           spec.forwarding,  spec.hopLimit,
          spec.overloadThreshold, spec.stealPeriod, spec.stealBatch};
}

namespace {

/// Least-loaded peer with live servers; ties break on the lower table index
/// (both sides iterate peers in the same deterministic order).
const PeerDigest* bestPeer(std::span<const PeerDigest> peers) {
  const PeerDigest* best = nullptr;
  for (const PeerDigest& p : peers) {
    if (p.liveServers == 0) continue;
    if (best == nullptr || p.meanLoad < best->meanLoad ||
        (p.meanLoad == best->meanLoad && p.index < best->index)) {
      best = &p;
    }
  }
  return best;
}

}  // namespace

RouteDecision decideRoute(const MeshConfig& config, const LocalView& local,
                          std::span<const PeerDigest> peers) {
  const bool overloaded =
      config.overloadThreshold > 0.0 && local.predictedCompletion.has_value() &&
      *local.predictedCompletion - local.now > config.overloadThreshold;

  if (local.feasible && !overloaded) return {RouteKind::kLocal, 0, "local"};

  const bool canForward = config.forwarding && local.hops < config.hopLimit;
  if (canForward) {
    const PeerDigest* peer = bestPeer(peers);
    // The overload trigger only pays off when the peer really is less
    // loaded; the no-feasible-server trigger takes any capable peer.
    if (peer != nullptr && (!local.feasible || peer->meanLoad < local.meanLoad)) {
      return {RouteKind::kForward, peer->index,
              local.feasible ? "overloaded" : "no-feasible-server"};
    }
  }

  if (local.feasible) return {RouteKind::kLocal, 0, "no-better-peer"};
  if (config.stealing()) return {RouteKind::kPark, 0, "awaiting-steal"};
  return {RouteKind::kDeny, 0,
          canForward ? "no-capable-peer" : "hop-limit"};
}

}  // namespace casched::mesh
