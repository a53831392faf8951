#include "net/server_daemon.hpp"

#include <algorithm>

#include "net/turn_wait.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

#undef CASCHED_LOG_COMPONENT
#define CASCHED_LOG_COMPONENT "net.server"

namespace casched::net {

namespace {
obs::Counter& reconnectsCounter() {
  static obs::Counter* c = &obs::Registry::global().counter(
      "casched_net_server_reconnects_total",
      "Successful server re-dials after a dropped agent link");
  return *c;
}

obs::Histogram& heartbeatRttHistogram() {
  static obs::Histogram* h = &obs::Registry::global().histogram(
      "casched_net_heartbeat_rtt_seconds",
      {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0},
      "Heartbeat round-trip (send to agent echo), simulated seconds");
  return *h;
}
}  // namespace

NetServerDaemon::NetServerDaemon(NetServerConfig config, PacedClock clock)
    : config_(std::move(config)),
      clock_(clock),
      node_(sim_, config_.machine, config_.node, *this) {
  CASCHED_CHECK(!config_.agentPorts.empty(), "server needs an agent port");
  CASCHED_CHECK(config_.heartbeatPeriod > 0.0, "heartbeat period must be positive");
}

NetServerDaemon::~NetServerDaemon() = default;

void NetServerDaemon::connect() {
  dial();
  if (!started_) {
    started_ = true;
    node_.start();
    sim_.scheduleAfter(config_.heartbeatPeriod, [this] { sendHeartbeat(); });
  }
}

void NetServerDaemon::dial() {
  const std::uint16_t port = config_.agentPorts[dialIndex_ % config_.agentPorts.size()];
  transport_ = wire::TcpTransport::connect(config_.agentHost, port);
  registered_ = false;
  sendRegistration();
}

void NetServerDaemon::maybeReconnect() {
  if (leaving_ || left_ || shutdownRequested_) return;
  if (transport_ != nullptr && !transport_->closed()) return;
  if (sim_.now() < nextReconnectAt_) return;
  nextReconnectAt_ = sim_.now() + config_.reconnectPeriod;
  try {
    dial();
    reconnectsCounter().inc();
    LOG_INFO("server " << name() << ": re-dialed the agent");
  } catch (const util::IoError&) {
    transport_.reset();  // this agent unreachable; try the next in the cycle
    ++dialIndex_;
  }
}

void NetServerDaemon::sendRegistration() {
  const psched::MachineSpec& spec = config_.machine;
  wire::RegisterMsg reg;
  reg.serverName = spec.name;
  reg.bwInMBps = spec.bwInMBps;
  reg.bwOutMBps = spec.bwOutMBps;
  reg.latencyIn = spec.latencyIn;
  reg.latencyOut = spec.latencyOut;
  reg.ramMB = spec.ramMB;
  reg.swapMB = spec.swapMB;
  reg.speedIndex = config_.speedIndex;
  reg.problems = config_.problems;
  send(wire::MessageType::kRegister, wire::encode(reg));
}

void NetServerDaemon::runOnce() {
  if (left_) return;
  sim_.advanceTo(clock_.simNow());
  maybeReconnect();
  if (transport_ && !transport_->closed()) {
    try {
      transport_->poll([&](wire::Frame frame) { handleFrame(frame); });
    } catch (const util::Error& e) {
      LOG_WARN("server " << name() << ": closing link on bad frame: " << e.what());
      transport_->close();
    }
  }
  if (leaving_) {
    if (activeTasks() != 0) {
      leaveIdleSince_ = -1.0;
    } else if (leaveIdleSince_ < 0.0) {
      leaveIdleSince_ = sim_.now();
    } else if (sim_.now() - leaveIdleSince_ >= config_.leaveLingerSeconds) {
      if (transport_) {
        transport_->flushQueued();
        transport_->close();
      }
      left_ = true;
    }
  }
  // Everything queued this cycle (timer-driven reports/heartbeats, terminal
  // notices from advanceTo, replies from handleFrame) leaves in one write.
  if (transport_ != nullptr && !transport_->closed()) transport_->flushQueued();
}

void NetServerDaemon::run(const std::atomic<bool>& stop) {
  // A closed link does not end the loop: maybeReconnect() re-dials until the
  // agent is back (or until the operator stops the daemon).
  TurnWaiter waiter;
  while (!stop.load(std::memory_order_relaxed) && !shutdownRequested_ && !left_) {
    runOnce();
    waiter.watch(transport_);
    waiter.waitForTurn(sim_.nextEventTime(), clock_);
  }
}

void NetServerDaemon::handleFrame(const wire::Frame& frame) {
  using wire::MessageType;
  switch (frame.type) {
    case MessageType::kRegisterAck: {
      const wire::RegisterAckMsg ack = wire::decodeRegisterAck(frame.payload);
      registered_ = ack.accepted;
      if (!ack.accepted) {
        // Likely a half-open predecessor still holds the name; drop the link
        // and keep re-dialing - once the agent's deadline retires the old
        // row, the re-registration revives it.
        LOG_WARN("server " << name() << ": registration rejected by the agent");
        transport_->close();
        return;
      }
      // Align this process's paced clock with the agent's, so completion
      // dates and sample times are comparable even when the daemons were
      // started at different wall times. Only ever jump forward: the event
      // engine cannot rewind, and a backward shift (agent restarted with a
      // fresh clock) would freeze every timer until wall time caught up.
      if (ack.agentTime > sim_.now()) clock_.resyncTo(ack.agentTime);
      return;
    }
    case MessageType::kTaskSubmit: {
      const wire::TaskSubmitMsg msg = wire::decodeTaskSubmit(frame.payload);
      node_.submitTask(msg.taskId,
                       {msg.taskId, msg.inMB, msg.cpuSeconds, msg.outMB, msg.memMB});
      return;
    }
    case MessageType::kShutdown:
      shutdownRequested_ = true;
      return;
    case MessageType::kHeartbeat: {
      // The agent echoes our heartbeats back; the delta from the embedded
      // sampleTime is a genuine round trip on this link (both stamps come
      // from our own clock, so agent/server skew cancels out).
      const wire::HeartbeatMsg m = wire::decodeHeartbeat(frame.payload);
      if (m.serverName == name()) {
        heartbeatRttHistogram().observe(std::max(0.0, sim_.now() - m.sampleTime));
      }
      return;
    }
    default:
      LOG_WARN("server " << name() << ": ignoring unexpected "
                         << wire::messageTypeName(frame.type) << " frame");
      return;
  }
}

void NetServerDaemon::completed(const std::string& server, std::uint64_t taskId,
                                simcore::SimTime completion, double unloadedDuration) {
  wire::TaskCompleteMsg done;
  done.taskId = taskId;
  done.serverName = server;
  done.completionTime = completion;
  done.unloadedDuration = unloadedDuration;
  send(wire::MessageType::kTaskComplete, wire::encode(done));
}

void NetServerDaemon::failed(const std::string& server, std::uint64_t taskId,
                             std::string_view reason) {
  wire::TaskFailedMsg msg;
  msg.taskId = taskId;
  msg.serverName = server;
  msg.reason = reason;
  send(wire::MessageType::kTaskFailed, wire::encode(msg));
}

void NetServerDaemon::loadReport(const std::string& server, double load,
                                 simcore::SimTime sampleTime) {
  wire::LoadReportMsg report;
  report.serverName = server;
  report.loadAverage = load;
  report.sampleTime = sampleTime;
  send(wire::MessageType::kLoadReport, wire::encode(report));
}

void NetServerDaemon::down(const std::string& server) {
  send(wire::MessageType::kServerDown, wire::encode(wire::ServerDownMsg{server}));
}

void NetServerDaemon::up(const std::string& server) {
  send(wire::MessageType::kServerUp, wire::encode(wire::ServerUpMsg{server}));
}

void NetServerDaemon::sendHeartbeat() {
  wire::HeartbeatMsg beat;
  beat.serverName = name();
  beat.sampleTime = sim_.now();
  send(wire::MessageType::kHeartbeat, wire::encode(beat));
  if (!left_) sim_.scheduleAfter(config_.heartbeatPeriod, [this] { sendHeartbeat(); });
}

void NetServerDaemon::send(wire::MessageType type, const wire::Bytes& payload) {
  if (transport_ == nullptr || transport_->closed()) return;
  // Deferred to the end of the current runOnce cycle; flushQueued() there
  // writes the cycle's frames in one call.
  transport_->queue(type, payload);
}

void NetServerDaemon::leave() {
  if (leaving_ || left_) return;
  leaving_ = true;
  down(name());
  // Load reports and noise stop (the server takes no new work), but
  // heartbeats keep flowing until the drain finishes and the link closes - a
  // long drain must not trip the agent's missed-report deadline while
  // completions are still coming. Once closed, the silence retires the row,
  // the live equivalent of the simulator's deregisterServer.
  node_.quiesce();
}

}  // namespace casched::net
