#pragma once
/// \file server_daemon.hpp
/// The live computational-server process: dials the agent, registers its
/// problems and machine parameters, then serves kTaskSubmit by running the
/// task on its own psched::Machine (the ground-truth execution model, paced
/// by the wall clock) and streams load reports and heartbeats back. Machine
/// collapses and recoveries travel as kServerDown / kServerUp, lost tasks as
/// kTaskFailed - the NetSolve computational server's visible behaviour, now
/// over real sockets.
///
/// Membership churn maps onto protocol actions: leave() announces
/// kServerDown, keeps draining in-flight work (completions still count, as
/// in the simulator's graceful departure), stops heartbeating so the agent's
/// deadline retires the row, and closes once idle; crash() forces a machine
/// collapse whose victims and recovery notice travel over the wire.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/clock.hpp"
#include "psched/machine.hpp"
#include "simcore/engine.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"

namespace casched::net {

struct NetServerConfig {
  std::string agentHost = "127.0.0.1";
  std::uint16_t agentPort = 0;
  /// Multi-agent failover list: when non-empty it overrides agentPort and
  /// re-dial attempts cycle through it, so a server whose agent died (and
  /// stayed dead) registers with the next agent - ownership migrates. The
  /// first entry is the server's home agent.
  std::vector<std::uint16_t> agentPorts;
  psched::MachineSpec machine;
  std::vector<std::string> problems{"*"};
  /// Relative compute speed advertised at registration (agent cost fallback).
  double speedIndex = 1.0;
  /// Load-report period, simulated seconds (NetSolve workload manager).
  double reportPeriod = 30.0;
  /// Heartbeat period, simulated seconds; must undercut the agent's timeout.
  double heartbeatPeriod = 5.0;
  /// After leave(), the link stays open this many idle simulated seconds
  /// before closing, so a submission racing the departure notice is still
  /// executed rather than lost (the simulator's graceful leave loses none).
  double leaveLingerSeconds = 5.0;
  /// When the agent link drops (agent restart, retirement closing the
  /// connection, or a rejected registration while the name is still held),
  /// the daemon re-dials and re-registers every this many simulated seconds
  /// until it succeeds or is told to stop.
  double reconnectPeriod = 10.0;
};

class NetServerDaemon {
 public:
  NetServerDaemon(NetServerConfig config, PacedClock clock);
  ~NetServerDaemon();

  NetServerDaemon(const NetServerDaemon&) = delete;
  NetServerDaemon& operator=(const NetServerDaemon&) = delete;

  /// Dials the agent and sends the registration; throws util::IoError when
  /// the agent is unreachable.
  void connect();

  /// One event-loop turn: advance the paced machine simulation, drain the
  /// agent link, finish a pending graceful departure. Non-blocking.
  void runOnce();

  /// Blocking loop for the CLI process: runOnce() turns separated by a
  /// TurnWaiter wait (turn_wait.hpp); returns when `stop` becomes true, the
  /// agent sends kShutdown, or a graceful leave finished.
  void run(const std::atomic<bool>& stop);

  const std::string& name() const { return machine_.name(); }
  psched::Machine& machine() { return machine_; }
  bool connected() const { return transport_ && !transport_->closed(); }
  bool registered() const { return registered_; }
  std::size_t activeTasks() const { return machine_.activeTasks(); }

  // --- live membership hooks (harness / operator) ---
  /// Graceful departure: kServerDown now, drain in-flight work, close when
  /// idle. Submissions racing the departure notice are still executed (the
  /// simulator's graceful leave drains them too), so no work is lost.
  void leave();
  bool leaving() const { return leaving_; }
  /// True once a leave() finished draining and the link is closed.
  bool left() const { return left_; }
  /// Injected collapse (victims fail over the wire, recovery announces
  /// kServerUp after `downtime` sim seconds; 0 = the machine's own recovery
  /// time). Returns false when the machine is already down.
  bool crash(double downtime = 0.0);
  /// CPU-capacity change (live slowdown churn); a positive `restoreAfter`
  /// self-recovers to full speed that many sim seconds later.
  void setSpeedFactor(double factor, double restoreAfter = 0.0) {
    machine_.setChurnSpeedFactor(factor, restoreAfter);
  }
  /// Link-bandwidth change (live bandwidth churn), same recovery contract.
  void setLinkFactor(double factor, double restoreAfter = 0.0) {
    machine_.setChurnLinkFactor(factor, restoreAfter);
  }

 private:
  void handleFrame(const wire::Frame& frame);
  void onTaskSubmit(const wire::TaskSubmitMsg& msg);
  void dial();
  void maybeReconnect();
  void sendRegistration();
  void sendLoadReport();
  void sendHeartbeat();
  void scheduleReportTimer();
  void scheduleHeartbeatTimer();
  void sendTaskFailed(std::uint64_t taskId, const std::string& reason);
  void send(wire::MessageType type, const wire::Bytes& payload);

  NetServerConfig config_;
  PacedClock clock_;
  simcore::Simulator sim_;
  psched::Machine machine_;
  std::shared_ptr<wire::TcpTransport> transport_;
  simcore::EventHandle reportTimer_{};
  simcore::EventHandle heartbeatTimer_{};
  bool registered_ = false;
  bool leaving_ = false;
  bool left_ = false;
  bool shutdownRequested_ = false;
  bool timersStarted_ = false;
  double leaveIdleSince_ = -1.0;   ///< sim time the post-leave drain emptied
  double nextReconnectAt_ = 0.0;   ///< sim time of the next re-dial attempt
  std::size_t dialIndex_ = 0;      ///< position in the agentPorts failover cycle
};

}  // namespace casched::net
