#include "cas/server_node.hpp"

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace casched::cas {

ServerNode::ServerNode(simcore::Simulator& sim, const psched::MachineSpec& spec,
                       ServerNodeConfig config, ServerSink& sink)
    : sim_(sim),
      config_(config),
      sink_(sink),
      machine_(sim, spec),
      noiseRng_(config.noiseSeed),
      cpuNoise_(sim, noiseRng_, config.cpuNoise,
                [this](double f) { machine_.setCpuNoiseFactor(f); }),
      linkNoise_(sim, noiseRng_, config.linkNoise,
                 [this](double f) { machine_.setLinkNoiseFactor(f); }) {
  CASCHED_CHECK(config_.reportPeriod > 0.0, "report period must be positive");
  machine_.setCollapseObserver([this](const std::vector<psched::ExecRecord>& victims) {
    sink_.down(name());
    for (const psched::ExecRecord& rec : victims) {
      sink_.failed(name(), rec.request.taskId, "server collapsed");
    }
  });
  machine_.setRecoverObserver([this] { sink_.up(name()); });
}

void ServerNode::start() {
  cpuNoise_.start();
  linkNoise_.start();
  scheduleReport();
}

void ServerNode::quiesce() {
  sim_.cancel(reportTimer_);
  cpuNoise_.stop();
  linkNoise_.stop();
}

void ServerNode::scheduleReport() {
  reportTimer_ = sim_.scheduleAfter(config_.reportPeriod, [this] {
    if (machine_.up()) sink_.loadReport(name(), machine_.loadAverage(), sim_.now());
    scheduleReport();
  });
}

void ServerNode::submitTask(std::uint64_t taskId, const psched::ExecRequest& request) {
  if (!machine_.up()) {
    sink_.failed(name(), taskId, "server down");
    return;
  }
  const bool accepted = machine_.submit(request, [this](const psched::ExecRecord& rec) {
    sink_.completed(name(), rec.request.taskId, rec.endTime,
                    machine_.unloadedDuration(rec.request));
  });
  if (!accepted) {
    // This admission collapsed the machine; the collapse observer already
    // reported `down` and the other victims.
    sink_.failed(name(), taskId, "submission rejected");
    return;
  }
  obs::TraceBuffer& trace = obs::TraceBuffer::global();
  if (trace.enabled()) {
    // Machine-side "start" span at data-arrival time, on both paths.
    trace.push({taskId, obs::TaskPhase::kStart, sim_.now(), 0.0, 0, name(), ""});
  }
}

}  // namespace casched::cas
