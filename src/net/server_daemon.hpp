#pragma once
/// \file server_daemon.hpp
/// The live computational-server process: the cas::ServerNode the simulator
/// runs, on its own wall-paced simulator, with every node output framed for
/// the agent (kTaskComplete, kTaskFailed, kLoadReport, kServerDown,
/// kServerUp). What is left here is live-only: dialing the agent (re-dial,
/// failover down `agentPorts`), registration and the kRegisterAck clock
/// resync, heartbeats and their round-trip histogram, and the leave linger.
///
/// leave() announces kServerDown and quiesces the node (reports and noise
/// stop), keeps draining in-flight work (completions still count, as in the
/// simulator's graceful departure), keeps heartbeating until the drain ends,
/// then closes once idle so the agent's deadline retires the row. crash()
/// forces a machine collapse whose victims and recovery notice travel over
/// the wire.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cas/server_node.hpp"
#include "net/clock.hpp"
#include "simcore/engine.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"

namespace casched::net {

struct NetServerConfig {
  std::string agentHost = "127.0.0.1";
  /// Agents to dial; the first is the server's home agent. When the link
  /// drops and the agent stays dead, re-dial attempts cycle through the list,
  /// so the server registers with the next agent - ownership migrates.
  std::vector<std::uint16_t> agentPorts;
  psched::MachineSpec machine;
  std::vector<std::string> problems{"*"};
  /// Relative compute speed advertised at registration (agent cost fallback).
  double speedIndex = 1.0;
  /// Report period and noise, simulated seconds (cas::ServerNode).
  cas::ServerNodeConfig node;
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

class NetServerDaemon final : private cas::ServerSink {
 public:
  NetServerDaemon(NetServerConfig config, PacedClock clock);
  ~NetServerDaemon() override;

  NetServerDaemon(const NetServerDaemon&) = delete;
  NetServerDaemon& operator=(const NetServerDaemon&) = delete;

  /// Dials the agent, sends the registration and starts the node and the
  /// heartbeats; throws util::IoError when the agent is unreachable.
  void connect();

  /// One event-loop turn: advance the paced simulator, drain the agent link,
  /// finish a pending graceful departure. Non-blocking.
  void runOnce();

  /// Blocking loop for the CLI process: runOnce() turns separated by a
  /// TurnWaiter wait (turn_wait.hpp); returns when `stop` becomes true, the
  /// agent sends kShutdown, or a graceful leave finished.
  void run(const std::atomic<bool>& stop);

  const std::string& name() const { return node_.name(); }
  cas::ServerNode& node() { return node_; }
  const simcore::Simulator& simulator() const { return sim_; }
  bool connected() const { return transport_ && !transport_->closed(); }
  bool registered() const { return registered_; }
  std::size_t activeTasks() const { return node_.machine().activeTasks(); }

  /// Graceful departure: kServerDown now, drain in-flight work, close when
  /// idle. Submissions racing the departure notice are still executed (the
  /// simulator's graceful leave drains them too), so no work is lost.
  void leave();
  bool leaving() const { return leaving_; }
  /// True once a leave() finished draining and the link is closed.
  bool left() const { return left_; }
  /// Injected collapse (cas::ServerNode::crash).
  bool crash(double downtime = 0.0) { return node_.crash(downtime); }

 private:
  // cas::ServerSink: each node output becomes one frame.
  void completed(const std::string& server, std::uint64_t taskId,
                 simcore::SimTime completion, double unloadedDuration) override;
  void failed(const std::string& server, std::uint64_t taskId,
              std::string_view reason) override;
  void loadReport(const std::string& server, double load,
                  simcore::SimTime sampleTime) override;
  void down(const std::string& server) override;
  void up(const std::string& server) override;

  void handleFrame(const wire::Frame& frame);
  void dial();
  void maybeReconnect();
  void sendRegistration();
  void sendHeartbeat();
  void send(wire::MessageType type, const wire::Bytes& payload);

  NetServerConfig config_;
  PacedClock clock_;
  simcore::Simulator sim_;
  cas::ServerNode node_;
  std::shared_ptr<wire::TcpTransport> transport_;
  bool registered_ = false;
  bool leaving_ = false;
  bool left_ = false;
  bool shutdownRequested_ = false;
  bool started_ = false;
  double leaveIdleSince_ = -1.0;   ///< sim time the post-leave drain emptied
  double nextReconnectAt_ = 0.0;   ///< sim time of the next re-dial attempt
  std::size_t dialIndex_ = 0;      ///< position in the agentPorts failover cycle
};

}  // namespace casched::net
