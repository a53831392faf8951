#pragma once
/// \file server_node.hpp
/// The computational server as a state machine over one simulator: it runs
/// submitted tasks on its psched::Machine (paper section 2.3 time sharing),
/// reports its load average on a period, redraws its CPU and link noise (the
/// shared laboratory of paper Table 1), and tells a ServerSink about every
/// completion, failure, collapse and recovery. It holds no socket, wire type
/// or wall clock: the simulator's GridSystem delivers its outputs to the
/// agent one control latency later, the live NetServerDaemon frames them.

#include <cstdint>
#include <string>
#include <string_view>

#include "cas/dispatch.hpp"
#include "psched/machine.hpp"
#include "psched/noise.hpp"
#include "simcore/engine.hpp"
#include "simcore/rng.hpp"

namespace casched::cas {

struct ServerNodeConfig {
  /// Period of load reports to the agent (NetSolve workload manager).
  double reportPeriod = 30.0;
  /// Background variability of the server's CPU and links; amplitude 0
  /// disables. Both processes draw from one stream seeded by `noiseSeed`.
  psched::NoiseConfig cpuNoise;
  psched::NoiseConfig linkNoise;
  std::uint64_t noiseSeed = 0;
};

/// Where a server node's outputs go; `server` is the node's name.
class ServerSink {
 public:
  virtual ~ServerSink() = default;
  virtual void completed(const std::string& server, std::uint64_t taskId,
                         simcore::SimTime completion, double unloadedDuration) = 0;
  virtual void failed(const std::string& server, std::uint64_t taskId,
                      std::string_view reason) = 0;
  virtual void loadReport(const std::string& server, double load,
                          simcore::SimTime sampleTime) = 0;
  virtual void down(const std::string& server) = 0;
  virtual void up(const std::string& server) = 0;
};

class ServerNode final : public TaskDispatch {
 public:
  ServerNode(simcore::Simulator& sim, const psched::MachineSpec& spec,
             ServerNodeConfig config, ServerSink& sink);

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  /// Starts the CPU noise, the link noise and the report cadence, in that
  /// order.
  void start();

  /// Graceful leave or end of run: reports and noise stop, in-flight tasks
  /// still run to completion.
  void quiesce();

  /// A submission to a down machine fails with "server down". One whose
  /// admission collapses the machine fails after the collapse's `down` and
  /// victim failures.
  void submitTask(std::uint64_t taskId, const psched::ExecRequest& request) override;

  /// Injected collapse: victims fail, `up` follows after `downtime` (0 = the
  /// machine's own recovery time). False when already down.
  bool crash(double downtime = 0.0) { return machine_.forceCollapse(downtime); }
  /// CPU or link capacity change; a positive `restoreAfter` self-recovers.
  void setSpeedFactor(double factor, double restoreAfter = 0.0) {
    machine_.setChurnSpeedFactor(factor, restoreAfter);
  }
  void setLinkFactor(double factor, double restoreAfter = 0.0) {
    machine_.setChurnLinkFactor(factor, restoreAfter);
  }

  const std::string& name() const { return machine_.name(); }
  const psched::Machine& machine() const { return machine_; }
  /// The noise factors in force (1 when quiet or quiesced).
  double cpuNoiseFactor() const { return cpuNoise_.factor(); }
  double linkNoiseFactor() const { return linkNoise_.factor(); }

 private:
  void scheduleReport();

  simcore::Simulator& sim_;
  ServerNodeConfig config_;
  ServerSink& sink_;
  psched::Machine machine_;
  simcore::EventHandle reportTimer_{};
  simcore::RandomStream noiseRng_;
  psched::NoiseProcess cpuNoise_;
  psched::NoiseProcess linkNoise_;
};

}  // namespace casched::cas
