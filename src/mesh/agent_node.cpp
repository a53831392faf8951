#include "mesh/agent_node.hpp"

#include <algorithm>

namespace casched::mesh {

AgentNode::AgentNode(MeshConfig config, std::string name)
    : config_(config), name_(std::move(name)) {}

RouteDecision AgentNode::route(const workload::TaskInstance& task,
                               const std::string& fromAgent, const LocalView& local,
                               std::span<const PeerDigest> peers) {
  if (!config_.enabled) {
    if (fromAgent.empty()) return {RouteKind::kLocal, 0, "local"};
    return {RouteKind::kDeny, 0, "mesh disabled"};
  }
  // A second copy (a forwarding cycle, a reused id) would overwrite the entry.
  if (holds(task.index)) return {RouteKind::kDeny, 0, "task id already used"};
  candidates_.clear();
  for (const PeerDigest& p : peers) {
    if (p.name != fromAgent) candidates_.push_back(p);
  }
  const RouteDecision decision = decideRoute(config_, local, candidates_);
  if (decision.kind == RouteKind::kForward) {
    ++stats_.forwards;
    const auto peer = std::find_if(candidates_.begin(), candidates_.end(),
                                   [&](const PeerDigest& p) { return p.index == decision.peer; });
    tasks_[task.index] = {State::kHandedOff, fromAgent, peer->name, false, task};
  } else if (decision.kind == RouteKind::kPark) {
    ++stats_.parked;
    tasks_[task.index] = {State::kParked, fromAgent, {}, false, {}};
    parked_.push_back(task);
  } else if (decision.kind == RouteKind::kLocal && !fromAgent.empty()) {
    tasks_[task.index] = {State::kPlaced, fromAgent, {}, false, {}};
  }
  return decision;
}

std::optional<HeldTask> AgentNode::forwardDenied(
    std::uint64_t taskId, const std::function<bool(const workload::TaskInstance&)>& feasibleHere) {
  const auto it = tasks_.find(taskId);
  if (it == tasks_.end() || it->second.state != State::kHandedOff) return std::nullopt;
  HeldTask held{std::move(it->second.task), std::move(it->second.fromAgent)};
  tasks_.erase(it);
  // Anything here that can run it beats passing the refusal on.
  held.placeHere = feasibleHere(held.task);
  if (held.placeHere && !held.fromAgent.empty()) {
    tasks_[taskId] = {State::kPlaced, held.fromAgent, {}, false, {}};
  }
  return held;
}

std::optional<std::size_t> AgentNode::stealTarget(std::size_t liveServers,
                                                  std::span<const PeerDigest> peers) const {
  if (!config_.enabled || !config_.stealing() || liveServers == 0 || !parked_.empty()) {
    return std::nullopt;
  }
  const PeerDigest* victim = nullptr;  // first of the deepest non-empty queues
  for (const PeerDigest& p : peers) {
    if (p.queuedTasks > (victim != nullptr ? victim->queuedTasks : 0)) victim = &p;
  }
  if (victim == nullptr) return std::nullopt;
  return victim->index;
}

std::vector<workload::TaskInstance> AgentNode::stealRequested(const std::string& thief,
                                                              std::size_t capacity) {
  std::vector<workload::TaskInstance> granted;
  while (granted.size() < capacity && !parked_.empty()) {
    // The thief's outcome comes back through this entry, like a forward's.
    Entry& entry = tasks_[parked_.front().index];
    entry.state = State::kHandedOff;
    entry.peer = thief;
    entry.task = parked_.front();
    granted.push_back(std::move(parked_.front()));
    parked_.pop_front();
  }
  return granted;
}

StealPlacement AgentNode::stealGranted(const std::string& victim,
                                       std::vector<workload::TaskInstance> tasks,
                                       const std::function<bool(std::uint64_t)>& heldElsewhere) {
  StealPlacement out;
  out.reason = config_.enabled ? "task id already used" : "mesh disabled";
  for (workload::TaskInstance& task : tasks) {
    if (!config_.enabled || holds(task.index) || heldElsewhere(task.index)) {
      out.refused.push_back(task.index);
      continue;
    }
    ++stats_.steals;
    tasks_[task.index] = {State::kPlaced, victim, {}, true, {}};
    out.place.push_back(std::move(task));
  }
  return out;
}

std::vector<HeldTask> AgentNode::peerLost(const std::string& peer) {
  std::vector<HeldTask> orphans;
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    if (it->second.state == State::kHandedOff && it->second.peer == peer) {
      orphans.push_back({std::move(it->second.task), std::move(it->second.fromAgent)});
      it = tasks_.erase(it);
    } else {
      ++it;
    }
  }
  // Hash order is arbitrary; re-route in id order for repeatable runs.
  std::sort(orphans.begin(), orphans.end(), [](const HeldTask& a, const HeldTask& b) {
    return a.task.index < b.task.index;
  });
  return orphans;
}

TerminalRelay AgentNode::terminal(std::uint64_t taskId) {
  const auto it = tasks_.find(taskId);
  if (it == tasks_.end() || it->second.state == State::kParked) return {};
  TerminalRelay relay{it->second.state == State::kHandedOff, std::move(it->second.fromAgent)};
  tasks_.erase(it);
  return relay;
}

std::string AgentNode::originOf(std::uint64_t taskId) const {
  const auto it = tasks_.find(taskId);
  if (it == tasks_.end() || it->second.state != State::kPlaced) return "local";
  return (it->second.stolen ? "steal:" : "forward:") + it->second.fromAgent;
}

}  // namespace casched::mesh
