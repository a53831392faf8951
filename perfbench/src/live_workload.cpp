// The live-agent workload: an open loop of Poisson requests against one
// net::AgentDaemon over loopback TCP. The daemon runs on its own thread; one
// generator thread (this one) owns the client connection and three stub
// servers, all speaking the wire protocol through wire::TcpTransport. Stubs
// register, send heartbeats and load reports, and answer each kTaskSubmit
// with kTaskComplete after holding it for its unloaded duration at the
// daemon's time scale. Latency is measured from each request's due time.

#include <poll.h>
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <queue>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "net/agent_daemon.hpp"
#include "net/clock.hpp"
#include "simcore/rng.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"
#include "workload/task_types.hpp"

namespace perfbench {

namespace {

using namespace casched;

/// Simulated seconds per wall second: the waste-cpu tasks (17-51 s) hold
/// their stub for 0.17-0.51 wall seconds.
constexpr double kTimeScale = 100.0;
/// Offered load in requests per wall second, well under the agent's measured
/// saturation point (see perfbench/README.md).
constexpr double kOfferedRate = 200.0;
constexpr int kStubCount = 3;
/// Requests due in the first second are sent but not measured.
constexpr double kWarmupSeconds = 1.0;
/// After the last due request, every terminal must arrive within this.
constexpr double kDrainSeconds = 10.0;
constexpr double kRegisterTimeoutSeconds = 5.0;
/// Stub beacons, in simulated seconds (the agent retires a server silent
/// for 90).
constexpr double kHeartbeatPeriod = 5.0;
constexpr double kReportPeriod = 10.0;
constexpr double kStubBandwidthMBps = 100.0;
/// A run whose generator sent later than this at p99 is invalid: the
/// generator, not the agent, was the bottleneck.
constexpr double kLagBoundMs = 5.0;
constexpr double kBacklogSamplePeriod = 0.1;
/// Latency quantiles and the max stretch are taken per window of this many
/// wall seconds (1000 requests at the fixed rate, so p99 has ten beyond it),
/// then the median over windows: a host stall confined to one window does not
/// set the run's tail.
constexpr double kLatencyWindowSeconds = 5.0;
/// Daemon start-up is repeated this many times per run; its median is
/// reported.
constexpr int kSetupRepeats = 15;
/// The sleep AgentDaemon::run() takes between turns; the traced pump copies it.
constexpr auto kPollTurnSleep = std::chrono::microseconds(500);
constexpr double kDepthSamplePeriod = 0.01;

struct Request {
  double due = 0.0;  ///< wall seconds after the generator starts
  std::size_t type = 0;
};

struct Schedule {
  std::vector<workload::TaskType> types = workload::wasteCpuFamily();
  std::vector<Request> requests;
};

/// Send times and types are drawn from the seed before the run starts.
Schedule makeSchedule(std::uint64_t seed, double rate, double span) {
  Schedule s;
  simcore::RandomStream arrivals(simcore::deriveSeed(seed, 1));
  simcore::RandomStream types(simcore::deriveSeed(seed, 2));
  for (double t = arrivals.exponentialMean(1.0 / rate); t < span;
       t += arrivals.exponentialMean(1.0 / rate)) {
    s.requests.push_back(
        {t, static_cast<std::size_t>(
                types.uniformInt(0, static_cast<std::int64_t>(s.types.size()) - 1))});
  }
  return s;
}

/// What the traced pump records on the daemon thread.
struct PumpTrace {
  std::vector<double> turnUs;
  double busySeconds = 0.0;
  double wallSeconds = 0.0;
  std::uint64_t turnsWithRequests = 0;
  std::uint64_t requests = 0;
  std::vector<double> depth;
  std::vector<double> previewUs;
  std::uint64_t previews = 0;
};

/// AgentDaemon::run() with a span around each runOnce() turn, plus periodic
/// HTM depth samples and one timed read-only preview per row. Everything here
/// runs on the daemon's own thread, so reading its state is race-free.
void tracedPump(net::AgentDaemon& daemon, const std::atomic<bool>& stop, PumpTrace& trace) {
  const cas::Agent& agent = daemon.agent();
  const core::HistoricalTraceManager& htm = agent.htm();
  const workload::TaskType probeType = workload::makeWasteCpuType(400);
  core::TaskDims dims;
  dims.inMB = probeType.inMB;
  dims.outMB = probeType.outMB;
  dims.cpuSeconds = probeType.refSeconds;
  // The agent's own dispatch delay: reply plus submission latency.
  const double startDelay = 2.0 * net::AgentDaemonConfig{}.controlLatency;
  core::Preview preview;
  const auto start = Clock::now();
  auto nextSample = start;
  while (!stop.load(std::memory_order_relaxed)) {
    const std::uint64_t decisionsBefore = agent.scheduleDecisions();
    const auto t0 = Clock::now();
    daemon.runOnce();
    const auto t1 = Clock::now();
    const double turn = secondsBetween(t0, t1);
    trace.turnUs.push_back(1e6 * turn);
    trace.busySeconds += turn;
    const std::uint64_t decided = agent.scheduleDecisions() - decisionsBefore;
    if (decided > 0) {
      ++trace.turnsWithRequests;
      trace.requests += decided;
    }
    if (t1 >= nextSample) {
      nextSample = t1 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(kDepthSamplePeriod));
      for (const std::string& name : htm.serverNames()) {
        const core::ServerId id = htm.findId(name);
        trace.depth.push_back(static_cast<double>(htm.activeTasks(id)));
        const auto p0 = Clock::now();
        htm.previewInto(id, dims, daemon.simulator().now(), startDelay, preview);
        trace.previewUs.push_back(1e6 * secondsSince(p0));
        ++trace.previews;
      }
    }
    std::this_thread::sleep_for(kPollTurnSleep);
  }
  trace.wallSeconds = secondsSince(start);
}

struct Stub {
  std::string name;
  std::shared_ptr<wire::TcpTransport> link;
  bool registered = false;
  std::size_t running = 0;
  double nextHeartbeat = 0.0;  ///< generator wall seconds
  double nextReport = 0.0;
};

/// One agent daemon on its own thread plus the generator's four connections.
class Deployment {
 public:
  explicit Deployment(bool traced) : clock_(kTimeScale) {
    net::AgentDaemonConfig config;
    config.heuristic = "msf";
    daemon_ = std::make_unique<net::AgentDaemon>(config, clock_);
    // Connections land in the listen backlog until the daemon accepts them,
    // so everything is dialed and sent before the thread starts.
    for (int i = 0; i < kStubCount; ++i) {
      Stub stub;
      stub.name = "stub-" + std::to_string(i);
      stub.link = wire::TcpTransport::connect("127.0.0.1", daemon_->port());
      wire::RegisterMsg reg;
      reg.serverName = stub.name;
      reg.bwInMBps = kStubBandwidthMBps;
      reg.bwOutMBps = kStubBandwidthMBps;
      reg.ramMB = 4096.0;
      reg.problems = {"*"};
      stub.link->send(wire::MessageType::kRegister, wire::encode(reg));
      stubs_.push_back(std::move(stub));
    }
    client_ = wire::TcpTransport::connect("127.0.0.1", daemon_->port());
    wire::HeartbeatMsg hello;  // empty server name: identifies a client
    client_->send(wire::MessageType::kHeartbeat, wire::encode(hello));
    thread_ = std::thread([this, traced] {
      if (traced) {
        tracedPump(*daemon_, stop_, pump_);
      } else {
        daemon_->run(stop_);
      }
    });
  }
  ~Deployment() { stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Pumps the stub links until every registration is acknowledged.
  bool waitRegistered() {
    const net::WallDeadline deadline(kRegisterTimeoutSeconds);
    while (!deadline.passed()) {
      bool all = true;
      for (Stub& stub : stubs_) {
        stub.link->poll([&](const wire::Frame& frame) {
          if (frame.type != wire::MessageType::kRegisterAck) return;
          stub.registered = wire::decodeRegisterAck(frame.payload).accepted;
        });
        all = all && stub.registered;
      }
      if (all) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return false;
  }

  /// Stops and joins the daemon thread; the daemon's state is then readable.
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  /// CPU time the daemon thread has used so far: its busy time, since the
  /// thread uses no CPU while it sleeps between turns or waits on poll().
  double daemonCpuSeconds() {
    clockid_t id;
    timespec ts{};
    if (pthread_getcpuclockid(thread_.native_handle(), &id) != 0 ||
        clock_gettime(id, &ts) != 0) {
      throw std::runtime_error("cannot read the daemon thread's CPU clock");
    }
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }
  net::PacedClock& clock() { return clock_; }
  net::AgentDaemon& daemon() { return *daemon_; }
  std::vector<Stub>& stubs() { return stubs_; }
  wire::TcpTransport& client() { return *client_; }
  const PumpTrace& pump() const { return pump_; }

 private:
  net::PacedClock clock_;
  std::unique_ptr<net::AgentDaemon> daemon_;
  std::vector<Stub> stubs_;
  std::shared_ptr<wire::TcpTransport> client_;
  std::atomic<bool> stop_{false};
  PumpTrace pump_;
  std::thread thread_;  ///< last: started after, joined before, everything above
};

/// Per-request record kept by the generator.
struct RequestState {
  double placed = -1.0;
  double terminal = -1.0;
  int placements = 0;
  int terminals = 0;
  bool completed = false;
  double completionSim = 0.0;
  double unloaded = 0.0;
};

struct Hold {
  double until = 0.0;
  std::size_t stub = 0;
  std::uint64_t taskId = 0;
  double unloaded = 0.0;
  bool operator>(const Hold& other) const { return until > other.until; }
};

struct DriveResult {
  std::vector<RequestState> requests;
  double simOffset = 0.0;  ///< simulated time at the generator's start
  double agentBusySeconds = 0.0;  ///< daemon thread CPU time over the drive
  std::vector<double> lagMs;  ///< measured requests only
  std::vector<std::pair<double, std::size_t>> backlog;  ///< (time, outstanding)
  std::size_t outstandingMax = 0;
  std::vector<double> sendUs, recvUs;
  obs::RegistrySnapshot registryDelta;
  bool drained = true;
};

/// The open-loop generator: sends every request at its due time whatever
/// the agent is doing, serves the stubs, and collects the relayed terminals.
DriveResult drive(Deployment& d, const Schedule& schedule, double measureFrom,
                  double measureTo) {
  const std::vector<Request>& requests = schedule.requests;
  DriveResult out;
  out.requests.resize(requests.size());
  std::vector<Stub>& stubs = d.stubs();
  wire::TcpTransport& client = d.client();
  const double heartbeatWall = kHeartbeatPeriod / kTimeScale;
  const double reportWall = kReportPeriod / kTimeScale;
  std::priority_queue<Hold, std::vector<Hold>, std::greater<>> holds;
  std::size_t next = 0;
  std::size_t terminals = 0;
  double nextBacklogSample = measureFrom;
  const double lastDue = requests.empty() ? 0.0 : requests.back().due;

  const obs::RegistrySnapshot before = obs::Registry::global().snapshot();
  const double cpuBefore = d.daemonCpuSeconds();
  const auto start = Clock::now();
  out.simOffset = kTimeScale * secondsBetween(d.clock().epoch(), start);
  const auto now = [&] { return secondsSince(start); };

  const auto onStubFrame = [&](std::size_t s, const wire::Frame& frame) {
    if (frame.type != wire::MessageType::kTaskSubmit) return;  // acks, beacon echoes
    const wire::TaskSubmitMsg m = wire::decodeTaskSubmit(frame.payload);
    const double at = now();
    if (m.taskId >= out.requests.size()) return;
    RequestState& r = out.requests[m.taskId];
    if (r.placements++ == 0) r.placed = at;
    const double unloaded =
        m.cpuSeconds + (m.inMB + m.outMB) / kStubBandwidthMBps;
    holds.push({at + unloaded / kTimeScale, s, m.taskId, unloaded});
    ++stubs[s].running;
  };
  const auto onClientFrame = [&](const wire::Frame& frame) {
    std::uint64_t id = 0;
    bool completed = false;
    double completionSim = 0.0;
    double unloaded = 0.0;
    switch (frame.type) {
      case wire::MessageType::kTaskComplete: {
        const wire::TaskCompleteMsg m = wire::decodeTaskComplete(frame.payload);
        id = m.taskId;
        completed = true;
        completionSim = m.completionTime;
        unloaded = m.unloadedDuration;
        break;
      }
      case wire::MessageType::kTaskFailed:
        id = wire::decodeTaskFailed(frame.payload).taskId;
        break;
      case wire::MessageType::kScheduleDeny:
        id = wire::decodeScheduleDeny(frame.payload).taskId;
        break;
      default:
        return;
    }
    if (id >= out.requests.size()) return;
    RequestState& r = out.requests[id];
    if (r.terminals++ > 0) return;
    r.terminal = now();
    r.completed = completed;
    r.completionSim = completionSim;
    r.unloaded = unloaded;
    ++terminals;
  };

  std::vector<pollfd> fds;
  while (true) {
    const double t = now();

    // Due requests, sent regardless of how the agent is doing.
    const auto s0 = Clock::now();
    std::size_t sent = 0;
    while (next < requests.size() && requests[next].due <= t) {
      const workload::TaskType& type = schedule.types[requests[next].type];
      wire::ScheduleRequestMsg msg;
      msg.taskId = next;
      msg.problem = type.name;
      msg.inMB = type.inMB;
      msg.outMB = type.outMB;
      msg.memMB = type.memMB;
      msg.refSeconds = type.refSeconds;
      client.queue(wire::MessageType::kScheduleRequest, wire::encode(msg));
      if (requests[next].due >= measureFrom && requests[next].due < measureTo) {
        out.lagMs.push_back(1e3 * (t - requests[next].due));
      }
      ++next;
      ++sent;
    }
    if (sent > 0) {
      client.flushQueued();
      out.sendUs.push_back(1e6 * secondsSince(s0));
    }

    // Stub side: finished holds, heartbeats, load reports.
    while (!holds.empty() && holds.top().until <= t) {
      const Hold h = holds.top();
      holds.pop();
      wire::TaskCompleteMsg done;
      done.taskId = h.taskId;
      done.serverName = stubs[h.stub].name;
      done.completionTime = d.clock().simNow();
      done.unloadedDuration = h.unloaded;
      stubs[h.stub].link->queue(wire::MessageType::kTaskComplete, wire::encode(done));
      --stubs[h.stub].running;
    }
    for (Stub& stub : stubs) {
      if (t >= stub.nextHeartbeat) {
        wire::HeartbeatMsg beat;
        beat.serverName = stub.name;
        beat.sampleTime = d.clock().simNow();
        stub.link->queue(wire::MessageType::kHeartbeat, wire::encode(beat));
        stub.nextHeartbeat = t + heartbeatWall;
      }
      if (t >= stub.nextReport) {
        wire::LoadReportMsg report;
        report.serverName = stub.name;
        report.loadAverage = static_cast<double>(stub.running);
        report.sampleTime = d.clock().simNow();
        stub.link->queue(wire::MessageType::kLoadReport, wire::encode(report));
        stub.nextReport = t + reportWall;
      }
      stub.link->flushQueued();
    }

    // Everything readable now, on all four connections.
    const auto r0 = Clock::now();
    std::size_t frames = 0;
    for (std::size_t s = 0; s < stubs.size(); ++s) {
      frames += stubs[s].link->poll([&](const wire::Frame& f) { onStubFrame(s, f); });
    }
    frames += client.poll(onClientFrame);
    if (frames > 0) out.recvUs.push_back(1e6 * secondsSince(r0));

    if (t >= nextBacklogSample && t < measureTo) {
      const std::size_t outstanding = next - terminals;
      out.backlog.emplace_back(t, outstanding);
      out.outstandingMax = std::max(out.outstandingMax, outstanding);
      nextBacklogSample += kBacklogSamplePeriod;
    }
    if (next == requests.size() && terminals == requests.size()) break;
    if (t > lastDue + kDrainSeconds) {
      out.drained = false;
      break;
    }

    // Sleep until the next due request, hold, beacon or sample, or until a
    // connection becomes readable.
    double wake = nextBacklogSample;
    if (next < requests.size()) wake = std::min(wake, requests[next].due);
    if (!holds.empty()) wake = std::min(wake, holds.top().until);
    for (const Stub& stub : stubs) {
      wake = std::min({wake, stub.nextHeartbeat, stub.nextReport});
    }
    const double wait = std::clamp(wake - now(), 0.0, 0.01);
    fds.clear();
    for (const Stub& stub : stubs) fds.push_back({stub.link->fd(), POLLIN, 0});
    fds.push_back({client.fd(), POLLIN, 0});
    timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = static_cast<long>(wait * 1e9);
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  }
  out.agentBusySeconds = d.daemonCpuSeconds() - cpuBefore;
  out.registryDelta = obs::Registry::global().snapshot().since(before);
  return out;
}

/// Latency and validity figures of one drive, over the measured requests.
struct LiveFigures {
  std::vector<std::vector<double>> placedMs, terminalMs, stretches;  ///< per window
  std::vector<double> flows;
  double firstDueSim = 0.0, lastCompletionSim = 0.0;
  std::size_t measured = 0;
  std::size_t missing = 0, duplicateTerminals = 0, duplicatePlacements = 0, failed = 0;
  bool backlogGrowing = false;
  double aggregateSeconds = 0.0;
};

/// Median over latency windows of each window's q-quantile; a trailing
/// window with under a fifth of a full window's requests is left out.
double windowedQuantile(const std::vector<std::vector<double>>& windows, double q) {
  std::size_t largest = 0;
  for (const auto& w : windows) largest = std::max(largest, w.size());
  std::vector<double> perWindow;
  for (const auto& w : windows) {
    if (!w.empty() && w.size() * 5 >= largest) perWindow.push_back(quantile(w, q));
  }
  return median(perWindow);
}

LiveFigures summarize(const Schedule& schedule, const DriveResult& run, double measureFrom,
                      double measureTo) {
  const auto a0 = Clock::now();
  LiveFigures f;
  f.firstDueSim = INFINITY;
  for (std::size_t i = 0; i < run.requests.size(); ++i) {
    const RequestState& r = run.requests[i];
    const double due = schedule.requests[i].due;
    if (r.terminals == 0) ++f.missing;
    if (r.terminals > 1) ++f.duplicateTerminals;
    if (r.placements > 1) ++f.duplicatePlacements;
    if (!r.completed) ++f.failed;
    if (due < measureFrom || due >= measureTo || !r.completed) continue;
    ++f.measured;
    const auto window = static_cast<std::size_t>((due - measureFrom) / kLatencyWindowSeconds);
    if (window >= f.placedMs.size()) {
      f.placedMs.resize(window + 1);
      f.terminalMs.resize(window + 1);
      f.stretches.resize(window + 1);
    }
    f.placedMs[window].push_back(1e3 * (r.placed - due));
    f.terminalMs[window].push_back(1e3 * (r.terminal - due));
    const double dueSim = run.simOffset + kTimeScale * due;
    const double flow = r.completionSim - dueSim;
    f.flows.push_back(flow);
    if (r.unloaded > 0.0) f.stretches[window].push_back(flow / r.unloaded);
    f.firstDueSim = std::min(f.firstDueSim, dueSim);
    f.lastCompletionSim = std::max(f.lastCompletionSim, r.completionSim);
  }
  // A backlog that keeps growing means the offered rate is past what the
  // agent sustains: compare the second and the last quarter of the window.
  const double quarter = (measureTo - measureFrom) / 4.0;
  std::vector<double> early, late;
  for (const auto& [t, outstanding] : run.backlog) {
    if (t >= measureFrom + quarter && t < measureFrom + 2 * quarter) {
      early.push_back(static_cast<double>(outstanding));
    } else if (t >= measureFrom + 3 * quarter) {
      late.push_back(static_cast<double>(outstanding));
    }
  }
  f.backlogGrowing = mean(late) > 1.5 * mean(early) + 5.0;
  f.aggregateSeconds = secondsSince(a0);
  return f;
}

struct Phase {
  DriveResult run;
  LiveFigures figures;
  std::vector<double> setupS;
  double scheduleSeconds = 0.0;
  std::uint64_t daemonEvents = 0;
  core::HtmStats htm;
  PumpTrace pump;
};

/// Set-up (repeated), one measured drive, teardown.
Phase runPhase(const Options& options, double window, bool traced, int setupRepeats) {
  Phase phase;
  const double rate = options.rate > 0.0 ? options.rate : kOfferedRate;
  const auto g0 = Clock::now();
  const Schedule schedule = makeSchedule(options.seed, rate, kWarmupSeconds + window);
  phase.scheduleSeconds = secondsSince(g0);

  std::unique_ptr<Deployment> d;
  const auto setUp = [&] {
    for (int rep = 0; rep < setupRepeats; ++rep) {
      d.reset();
      const auto t0 = Clock::now();
      d = std::make_unique<Deployment>(traced);
      if (!d->waitRegistered()) throw std::runtime_error("stub servers never registered");
      phase.setupS.push_back(secondsSince(t0));
    }
  };

  setUp();
  phase.run = drive(*d, schedule, kWarmupSeconds, kWarmupSeconds + window);
  d->stop();
  phase.figures = summarize(schedule, phase.run, kWarmupSeconds, kWarmupSeconds + window);
  phase.daemonEvents = d->daemon().simulator().executedEvents();
  phase.htm = d->daemon().agent().htm().stats();
  phase.pump = d->pump();
  // Set up again after the drive, so the set-up samples span the run.
  setUp();
  return phase;
}

void checkPhase(const Phase& phase, Report& report) {
  const LiveFigures& f = phase.figures;
  report.attempted += phase.run.requests.size();
  report.failed += f.failed;
  report.check(phase.run.drained, "requests still outstanding " +
                                      std::to_string(kDrainSeconds) +
                                      " s after the last was due");
  report.check(f.missing == 0, std::to_string(f.missing) + " requests got no terminal");
  report.check(f.duplicateTerminals == 0,
               std::to_string(f.duplicateTerminals) + " requests got more than one terminal");
  report.check(f.duplicatePlacements == 0,
               std::to_string(f.duplicatePlacements) + " task ids reached a stub twice");
  report.check(f.failed == 0, std::to_string(f.failed) + " requests did not complete");
  const double decodeErrors =
      counterValue(phase.run.registryDelta, "casched_net_decode_errors_total");
  report.check(decodeErrors == 0.0,
               std::to_string(static_cast<long long>(decodeErrors)) + " wire decode errors");
  report.check(f.measured > 0, "no request fell inside the measurement window");
  // Open-loop validity: a late generator or a growing backlog is not a
  // latency figure.
  const double lagP99 = quantile(phase.run.lagMs, 0.99);
  report.check(lagP99 <= kLagBoundMs,
               "invalid run: generator lag p99 " + std::to_string(lagP99) + " ms exceeds " +
                   std::to_string(kLagBoundMs) + " ms");
  report.check(!f.backlogGrowing, "invalid run: the request backlog kept growing");
}

}  // namespace

bool isLiveWorkload(const std::string& name) { return name == "live-agent"; }

Report runLiveWorkload(const Options& options) {
  Report report;
  auto& m = report.metrics;
  if (!options.trace) {
    const Phase phase = runPhase(options, options.seconds, false, kSetupRepeats);
    checkPhase(phase, report);
    const LiveFigures& f = phase.figures;
    m["setup_s"] = median(phase.setupS);
    // The agent's own work: its busy time over the whole drive, and the
    // requests it placed per busy second (the rate it could sustain).
    const double busy = phase.run.agentBusySeconds;
    m["campaign_wall_s"] = busy;
    m["achieved_rate_per_s"] = static_cast<double>(phase.run.requests.size()) / busy;
    // Fixed by the schedule and the stubs' holds up to a few milliseconds of
    // placement and relay latency; guards, not signals, on this workload.
    m["mean_flow_s"] = mean(f.flows);
    m["makespan_s"] = f.lastCompletionSim - f.firstDueSim;
    m["max_stretch"] = windowedQuantile(f.stretches, 1.0);
    m["submit_to_placed_p50_ms"] = windowedQuantile(f.placedMs, 0.50);
    m["submit_to_terminal_p50_ms"] = windowedQuantile(f.terminalMs, 0.50);
    m["submit_to_terminal_p99_ms"] = windowedQuantile(f.terminalMs, 0.99);
    m["peak_rss_mb"] = peakRssMb();
    return report;
  }

  // Traced run: half the window with the production run() loop, half with the
  // spanned pump; the per-layer figures come from the second half.
  const double half = options.seconds / 2.0;
  const Phase plain = runPhase(options, half, false, 1);
  const Phase traced = runPhase(options, half, true, 1);
  checkPhase(plain, report);
  checkPhase(traced, report);
  const LiveFigures& f = traced.figures;
  const PumpTrace& pump = traced.pump;
  const obs::RegistrySnapshot& delta = traced.run.registryDelta;
  const double decisions = counterValue(delta, "casched_schedule_decisions_total");
  const double agentPreviews = static_cast<double>(traced.htm.previews - pump.previews);

  m["scenario.compile_s"] = 0.0;  // no scenario: the schedule is generated directly
  m["workload.generate_s"] = traced.scheduleSeconds;
  m["cas.run_s"] = 0.0;
  m["cas.runs"] = 0.0;
  m["simcore.events"] = static_cast<double>(traced.daemonEvents);
  m["simcore.events_per_run_s"] = 0.0;
  m["psched.machine_submits"] = counterValue(delta, "casched_machine_submits_total");
  m["psched.collapses"] = counterValue(delta, "casched_machine_collapses_total");
  m["core.decisions"] = decisions;
  m["core.htm_previews"] = agentPreviews;
  m["core.previews_per_decision"] = decisions > 0.0 ? agentPreviews / decisions : 0.0;
  m["core.htm_depth_p50"] = quantile(pump.depth, 0.50);
  m["core.htm_depth_max"] = quantile(pump.depth, 1.0);
  m["core.htm_preview_us_p50"] = quantile(pump.previewUs, 0.50);
  m["core.htm_preview_us_p99"] = quantile(pump.previewUs, 0.99);
  m["core.htm_rel_error_pct"] = traced.htm.meanRelErrorPercent();
  m["submit_to_placed_p99_ms"] = windowedQuantile(f.placedMs, 0.99);
  m["net.poll_turns"] = static_cast<double>(pump.turnUs.size());
  m["net.poll_turn_us_p50"] = quantile(pump.turnUs, 0.50);
  m["net.poll_turn_us_p99"] = quantile(pump.turnUs, 0.99);
  m["net.agent_busy_frac"] = pump.wallSeconds > 0.0 ? pump.busySeconds / pump.wallSeconds : 0.0;
  m["net.requests_per_turn"] =
      pump.turnsWithRequests > 0
          ? static_cast<double>(pump.requests) / static_cast<double>(pump.turnsWithRequests)
          : 0.0;
  m["wire.frames_in"] = counterValue(delta, "casched_net_frames_in_total");
  m["wire.frames_out"] = counterValue(delta, "casched_net_frames_out_total");
  m["wire.messages_out"] = counterValue(delta, "casched_net_messages_out_total");
  m["wire.coalesced_frames_out"] = counterValue(delta, "casched_net_coalesced_frames_out_total");
  m["wire.bytes_out"] = counterValue(delta, "casched_net_bytes_out_total");
  m["wire.decode_errors"] = counterValue(delta, "casched_net_decode_errors_total");
  m["wire.messages_per_frame"] =
      m["wire.frames_out"] > 0.0 ? m["wire.messages_out"] / m["wire.frames_out"] : 0.0;
  m["wire.client_send_us"] = quantile(traced.run.sendUs, 0.50);
  m["wire.client_recv_us"] = quantile(traced.run.recvUs, 0.50);
  m["loadgen.lag_p99_ms"] = quantile(traced.run.lagMs, 0.99);
  m["loadgen.outstanding_max"] = static_cast<double>(traced.run.outstandingMax);
  m["metrics.aggregate_s"] = f.aggregateSeconds;
  m["trace.overhead_frac"] =
      windowedQuantile(f.placedMs, 0.50) / windowedQuantile(plain.figures.placedMs, 0.50) - 1.0;
  m["failed_frac"] = report.attempted > 0 ? static_cast<double>(report.failed) /
                                                static_cast<double>(report.attempted)
                                          : 0.0;
  return report;
}

}  // namespace perfbench
