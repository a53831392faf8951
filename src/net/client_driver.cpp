#include "net/client_driver.hpp"

#include <algorithm>

#include "net/agent_daemon.hpp"
#include "net/turn_wait.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace casched::net {

ClientDriver::ClientDriver(ClientConfig config, PacedClock clock)
    : config_(std::move(config)), clock_(clock) {
  if (config_.agentPorts.empty()) config_.agentPorts.push_back(config_.agentPort);
  for (std::uint16_t port : config_.agentPorts) {
    AgentLink link;
    link.port = port;
    links_.push_back(std::move(link));
  }
}

bool ClientDriver::dialLink(AgentLink& link) {
  try {
    link.transport = wire::TcpTransport::connect(config_.agentHost, link.port);
  } catch (const util::IoError&) {
    link.transport.reset();
    return false;
  }
  // Hello: an empty-name heartbeat tells the agent this connection is a
  // client, so it is not reaped as never-identified while waiting for the
  // first arrival date.
  link.transport->send(wire::MessageType::kHeartbeat, wire::encode(wire::HeartbeatMsg{}));
  return true;
}

void ClientDriver::connect() {
  std::size_t live = 0;
  for (AgentLink& link : links_) {
    if (dialLink(link)) ++live;
  }
  if (live == 0) {
    throw util::IoError("client: no agent reachable on any configured port");
  }
}

std::size_t ClientDriver::liveAgentCount() const {
  std::size_t n = 0;
  for (const AgentLink& link : links_) {
    if (link.transport && !link.transport->closed()) ++n;
  }
  return n;
}

void ClientDriver::start(const workload::Metatask& metatask) {
  CASCHED_CHECK(liveAgentCount() > 0, "client must connect before start");
  CASCHED_CHECK(!metatask.tasks.empty(), "metatask is empty");
  metatask_ = metatask;
  total_ = metatask.tasks.size();
  started_ = true;
  nextToSend_ = 0;
  completed_ = 0;
  failovers_ = 0;
  wireToPos_.clear();
  inFlightLink_.clear();
  resend_.clear();
  terminal_.clear();
  denies_ = 0;
  denyFirstAt_.clear();
  deniedRetry_.clear();
  resolverStats_ = {};
  nextProbeAt_ = 0.0;
  probeLinks_.clear();
  lastBest_ = kNoBest;
}

std::size_t ClientDriver::bestRankedLink() const {
  // Two tiers: an agent advertising zero live servers cannot run anything, so
  // it only wins when no live link has servers at all.
  std::size_t best = links_.size();
  double bestScore = 0.0;
  bool bestHasServers = false;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const AgentLink& link = links_[i];
    if (!link.transport || link.transport->closed()) continue;
    if (link.infosReceived == 0) continue;
    const bool hasServers = link.liveServers > 0;
    const double score = link.rttSeconds + config_.loadWeight * link.meanLoad;
    const bool better = best == links_.size() ||
                        (hasServers && !bestHasServers) ||
                        (hasServers == bestHasServers && score < bestScore);
    if (better) {
      best = i;
      bestScore = score;
      bestHasServers = hasServers;
    }
  }
  return best;
}

bool ClientDriver::sendTask(std::size_t pos, std::uint64_t wireId) {
  // Pick the carrying link: the resolver's current best-ranked agent, else
  // round-robin over live links (partitioned mode) or the first live one
  // (replicated mode - everything to the primary).
  std::size_t chosen = links_.size();
  if (config_.resolver) {
    chosen = bestRankedLink();
    if (chosen == links_.size()) {
      // No probe reply yet: fall back to the first live link.
      for (std::size_t i = 0; i < links_.size(); ++i) {
        if (links_[i].transport && !links_[i].transport->closed()) {
          chosen = i;
          break;
        }
      }
    }
  } else if (config_.roundRobin) {
    for (std::size_t step = 0; step < links_.size(); ++step) {
      const std::size_t i = (rrNext_ + step) % links_.size();
      if (links_[i].transport && !links_[i].transport->closed()) {
        chosen = i;
        rrNext_ = (i + 1) % links_.size();
        break;
      }
    }
  } else {
    // Sticky primary: keep using the agent that is currently serving us and
    // only advance when it dies. Scanning from 0 instead would hand new
    // tasks back to a restarted (warm but server-less) agent whose registry
    // migrated to the survivor during the outage.
    for (std::size_t step = 0; step < links_.size(); ++step) {
      const std::size_t i = (primary_ + step) % links_.size();
      if (links_[i].transport && !links_[i].transport->closed()) {
        chosen = i;
        primary_ = i;
        break;
      }
    }
  }
  if (chosen == links_.size()) return false;

  const workload::TaskInstance& task = metatask_.tasks[pos];
  wire::ScheduleRequestMsg request = requestFromTask(task);
  request.taskId = wireId;
  // Queued, not sent: a burst of due arrivals (and failover re-submissions)
  // leaves in one write when runOnce flushes below.
  links_[chosen].transport->queue(wire::MessageType::kScheduleRequest,
                                  wire::encode(request));
  wireToPos_[wireId] = pos;
  inFlightLink_[wireId] = chosen;
  return true;
}

void ClientDriver::runOnce() {
  if (!started_) return;
  const double now = clock_.simNow();

  // Reap dead links first: everything in flight there moves to the resend
  // queue (the agent - or its replacement - will see a fresh wire id), then
  // the link re-dials on its own period.
  for (std::size_t i = 0; i < links_.size(); ++i) {
    AgentLink& link = links_[i];
    if (link.transport && link.transport->closed()) link.transport.reset();
    if (link.transport == nullptr) {
      for (auto it = inFlightLink_.begin(); it != inFlightLink_.end();) {
        if (it->second != i) {
          ++it;
          continue;
        }
        const std::uint64_t wireId = it->first;
        const std::size_t pos = wireToPos_.at(wireId);
        it = inFlightLink_.erase(it);
        const std::uint64_t index = metatask_.tasks[pos].index;
        if (terminal_.count(index) == 0) {
          LOG_WARN("client: agent link died with task " << index
                                                        << " open, failing over");
          resend_.push_back(pos);
        }
      }
      if (now >= link.nextRedialAt) {
        link.nextRedialAt = now + config_.redialPeriod;
        dialLink(link);
      }
    }
  }

  maybeProbe(now);

  // Send every arrival now due; stop (and retry next turn) when no agent is
  // currently reachable.
  while (nextToSend_ < metatask_.tasks.size() &&
         metatask_.tasks[nextToSend_].arrival <= now) {
    if (!sendTask(nextToSend_, metatask_.tasks[nextToSend_].index)) break;
    ++nextToSend_;
  }

  // Denied tasks whose backoff elapsed rejoin the resend queue.
  for (auto it = deniedRetry_.begin(); it != deniedRetry_.end();) {
    if (now >= it->second) {
      resend_.push_back(it->first);
      it = deniedRetry_.erase(it);
    } else {
      ++it;
    }
  }

  // Failover re-submissions, under fresh wire ids.
  while (!resend_.empty()) {
    const std::size_t pos = resend_.back();
    if (terminal_.count(metatask_.tasks[pos].index) != 0) {
      resend_.pop_back();  // a late notice settled it meanwhile
      continue;
    }
    if (!sendTask(pos, nextFailoverId_)) break;
    ++nextFailoverId_;
    ++failovers_;
    resend_.pop_back();
  }

  for (AgentLink& link : links_) {
    if (link.transport == nullptr) continue;
    try {
      link.transport->flushQueued();
      link.transport->poll([&](wire::Frame frame) { handleFrame(frame); });
    } catch (const util::Error& e) {
      LOG_WARN("client: closing link on bad frame: " << e.what());
      link.transport->close();
    }
  }
}

void ClientDriver::maybeProbe(double now) {
  if (!config_.resolver || now < nextProbeAt_) return;
  nextProbeAt_ = now + config_.probePeriod;
  probeLinks_.clear();  // replies to a previous round are stale by now
  for (std::size_t i = 0; i < links_.size(); ++i) {
    AgentLink& link = links_[i];
    if (!link.transport || link.transport->closed()) continue;
    wire::ResolverProbeMsg probe;
    probe.probeId = nextProbeId_++;
    probe.sendTime = now;
    probeLinks_[probe.probeId] = i;
    link.transport->send(wire::MessageType::kResolverProbe, wire::encode(probe));
    ++resolverStats_.probes;
  }
}

void ClientDriver::onResolverInfo(const wire::ResolverInfoMsg& msg) {
  const auto probe = probeLinks_.find(msg.probeId);
  if (probe == probeLinks_.end()) return;  // stale round
  AgentLink& link = links_[probe->second];
  probeLinks_.erase(probe);
  link.rttSeconds = std::max(0.0, clock_.simNow() - msg.echoSendTime);
  link.meanLoad = msg.meanLoad;
  link.liveServers = msg.liveServers;
  ++link.infosReceived;
  ++resolverStats_.infos;

  // Gossip: dial agents this client was never configured with.
  for (const std::string& address : msg.peerAddresses) {
    const auto colon = address.rfind(':');
    if (colon == std::string::npos) continue;
    int port = 0;
    try {
      port = std::stoi(address.substr(colon + 1));
    } catch (const std::exception&) {
      continue;
    }
    if (port <= 0 || port > 0xFFFF) continue;
    const auto asPort = static_cast<std::uint16_t>(port);
    const bool known = std::any_of(links_.begin(), links_.end(),
                                   [&](const AgentLink& l) { return l.port == asPort; });
    if (known) continue;
    AgentLink learned;
    learned.port = asPort;
    links_.push_back(std::move(learned));
    dialLink(links_.back());
    ++resolverStats_.learnedPeers;
    LOG_INFO("client: learned agent at " << address << " from resolver gossip");
  }

  // Re-rank against the last best we ever picked, not a value recomputed a
  // moment ago: a link that died between two probe rounds changes the answer
  // without any info arriving, and that switch must count too.
  const std::size_t best = bestRankedLink();
  if (best != links_.size() && best != lastBest_) {
    if (lastBest_ != kNoBest) ++resolverStats_.reranks;
    lastBest_ = best;
  }
}

void ClientDriver::handleFrame(const wire::Frame& frame) {
  using wire::MessageType;
  const auto settle = [&](std::uint64_t wireId) -> std::uint64_t {
    inFlightLink_.erase(wireId);
    auto it = wireToPos_.find(wireId);
    // Unknown wire id: a notice for a task this driver never sent.
    if (it == wireToPos_.end()) return wireId;
    return metatask_.tasks[it->second].index;
  };
  if (frame.type == MessageType::kTaskComplete) {
    const wire::TaskCompleteMsg m = wire::decodeTaskComplete(frame.payload);
    auto [it, inserted] = terminal_.try_emplace(settle(m.taskId));
    if (!inserted) return;  // duplicate terminal notice (orphan + failover copy)
    it->second.completed = true;
    it->second.server = m.serverName;
    it->second.completionTime = m.completionTime;
    ++completed_;
    return;
  }
  if (frame.type == MessageType::kTaskFailed) {
    const wire::TaskFailedMsg m = wire::decodeTaskFailed(frame.payload);
    auto [it, inserted] = terminal_.try_emplace(settle(m.taskId));
    if (!inserted) return;
    it->second.completed = false;
    it->second.server = m.serverName;
    return;
  }
  if (frame.type == MessageType::kScheduleDeny) {
    const wire::ScheduleDenyMsg m = wire::decodeScheduleDeny(frame.payload);
    auto it = wireToPos_.find(m.taskId);
    if (it == wireToPos_.end()) return;
    const std::size_t pos = it->second;
    const std::uint64_t index = metatask_.tasks[pos].index;
    inFlightLink_.erase(m.taskId);
    if (terminal_.count(index) != 0) return;
    ++denies_;
    const double now = clock_.simNow();
    const double firstDeny = denyFirstAt_.try_emplace(index, now).first->second;
    if (links_.size() > 1 && now - firstDeny < config_.denyGraceSeconds) {
      // Another agent may have the servers (or the denier's registry is
      // still migrating): steer the sticky primary past the denier and
      // retry after the backoff.
      LOG_WARN("client: task " << index << " denied by " << m.agentName << " ("
                               << m.reason << "), failing over");
      if (!config_.roundRobin && !config_.resolver) {
        primary_ = (primary_ + 1) % links_.size();
      }
      deniedRetry_.emplace_back(pos, now + config_.denyRetryDelay);
    } else {
      // One agent total, or every retry within the grace window came back
      // denied: the deny is this task's terminal answer. This replaces the
      // old silent client-side timeout when no agent has servers at all.
      LOG_WARN("client: task " << index << " denied by " << m.agentName << " ("
                               << m.reason << "), giving up");
      terminal_[index].completed = false;
      denyFirstAt_.erase(index);
    }
    return;
  }
  if (frame.type == MessageType::kResolverInfo) {
    onResolverInfo(wire::decodeResolverInfo(frame.payload));
    return;
  }
  LOG_WARN("client: ignoring unexpected " << wire::messageTypeName(frame.type)
                                          << " frame");
}

bool ClientDriver::run(const workload::Metatask& metatask, double wallTimeoutSeconds,
                       const std::atomic<bool>& stop) {
  start(metatask);
  const WallDeadline deadline(wallTimeoutSeconds);
  TurnWaiter waiter;
  while (!done() && !stop.load(std::memory_order_relaxed)) {
    if (deadline.passed()) break;
    runOnce();
    for (const AgentLink& link : links_) waiter.watch(link.transport);
    // The client has no simulator; its next event is the next arrival. One
    // already due is waiting for a live link, which the idle bound re-tries.
    double nextArrival = simcore::kTimeInfinity;
    if (nextToSend_ < metatask_.tasks.size() &&
        metatask_.tasks[nextToSend_].arrival > clock_.simNow()) {
      nextArrival = metatask_.tasks[nextToSend_].arrival;
    }
    waiter.waitForTurn(nextArrival, clock_);
  }
  return done();
}

}  // namespace casched::net
