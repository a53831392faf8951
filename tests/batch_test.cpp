// Locks the batched-placement contract: Agent::scheduleBatch produces exactly
// the placements, outcomes and lifecycle span chains of one-at-a-time
// requestSchedule calls at the same instants - in the simulator (GridSystem
// submits equal arrivals as one batch) and over live TCP loopback (the
// AgentDaemon drains each poll cycle's requests into one batch) - and that
// the steady-state decision path performs zero heap allocations.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cas/agent.hpp"
#include "cas/dispatch.hpp"
#include "cas/system.hpp"
#include "net/agent_daemon.hpp"
#include "net/clock.hpp"
#include "net/server_daemon.hpp"
#include "obs/trace.hpp"
#include "platform/testbed.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"
#include "workload/metatask.hpp"
#include "workload/task_types.hpp"

// ---- allocation counting (this test binary only) --------------------------
// Global operator new/delete replacements that count allocations, so the
// zero-alloc test can assert the steady-state scheduling path never touches
// the heap. Sanitizer builds intercept new/delete themselves, so the hooks
// (and the test that needs them) are compiled out there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CASCHED_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CASCHED_COUNT_ALLOCS 0
#else
#define CASCHED_COUNT_ALLOCS 1
#endif
#else
#define CASCHED_COUNT_ALLOCS 1
#endif

#if CASCHED_COUNT_ALLOCS
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The pairing is correct (new -> malloc, delete -> free); GCC cannot see
// through the replacement and warns at inlined call sites.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif  // CASCHED_COUNT_ALLOCS

namespace casched {
namespace {

// ---- sim: batched (production client) vs sequential ----------------------

/// Tasks arriving in bursts of four - the pattern the client's equal-arrival
/// grouping turns into scheduleBatch calls.
workload::Metatask groupedMetatask() {
  const workload::TaskType small = workload::makeSyntheticType("small", 2.0, 30.0, 1.0, 0.0);
  const workload::TaskType big = workload::makeSyntheticType("big", 8.0, 120.0, 4.0, 0.0);
  workload::Metatask mt;
  mt.name = "grouped";
  std::uint64_t index = 0;
  for (std::size_t group = 0; group < 9; ++group) {
    const double arrival = 15.0 * static_cast<double>(group + 1);
    for (std::size_t k = 0; k < 4; ++k) {
      mt.tasks.push_back({index++, arrival, k % 2 == 0 ? small : big});
    }
  }
  return mt;
}

TEST(Batching, BatchedAndSequentialSchedulingAgree) {
  obs::TraceBuffer& trace = obs::TraceBuffer::global();
  for (const char* heuristic : {"hmct", "msf", "mp"}) {
    const platform::Testbed bed = platform::buildSet2();
    const workload::Metatask mt = groupedMetatask();
    cas::SystemConfig cfg;
    cfg.controlLatency = 0.25;

    // Batched: the production path - the client hands each equal-arrival
    // group to Agent::scheduleBatch as one call.
    trace.enable(1 << 16);
    cas::GridSystem batchedWorld(bed, mt, heuristic, cfg);
    const metrics::RunResult batched = batchedWorld.run();
    const auto batchedChains = obs::taskPhaseChains(trace.snapshot());

    // Sequential: an identical world driven by one requestSchedule event per
    // task at exactly the same instants (the pre-batching client behaviour).
    trace.enable(1 << 16);
    cas::GridSystem seqWorld(bed, mt, heuristic, cfg);
    cas::Agent& agent = seqWorld.agent();
    simcore::Simulator& sim = seqWorld.simulator();
    agent.setExpectedTasks(mt.size());
    std::size_t terminal = 0;
    agent.setTaskTerminalObserver([&sim, &terminal, &mt](const metrics::TaskOutcome&) {
      if (++terminal == mt.size()) sim.requestStop();
    });
    for (const workload::TaskInstance& task : mt.tasks) {
      const workload::TaskInstance copy = task;
      sim.scheduleAt(task.arrival + cfg.controlLatency,
                     [&agent, copy] { agent.requestSchedule(copy); });
    }
    sim.run(cfg.horizon);
    const std::vector<metrics::TaskOutcome> sequential = agent.collectOutcomes();
    const auto sequentialChains = obs::taskPhaseChains(trace.snapshot());
    trace.disable();

    // Placements, completion dates and span chains must agree bit for bit.
    ASSERT_EQ(batched.tasks.size(), sequential.size()) << heuristic;
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(batched.tasks[i].server, sequential[i].server)
          << heuristic << " task " << i;
      EXPECT_EQ(batched.tasks[i].status, sequential[i].status)
          << heuristic << " task " << i;
      EXPECT_DOUBLE_EQ(batched.tasks[i].completion, sequential[i].completion)
          << heuristic << " task " << i;
      EXPECT_EQ(batched.tasks[i].attempts, sequential[i].attempts)
          << heuristic << " task " << i;
    }
    ASSERT_EQ(batchedChains.size(), sequentialChains.size()) << heuristic;
    for (const auto& [taskId, chain] : sequentialChains) {
      ASSERT_TRUE(batchedChains.count(taskId) != 0) << heuristic << " task " << taskId;
      EXPECT_EQ(batchedChains.at(taskId), chain) << heuristic << " task " << taskId;
    }
  }
}

// ---- live: one-poll-cycle burst vs one-at-a-time, and vs the simulator ----

struct LiveWorld {
  net::PacedClock clock;
  std::unique_ptr<net::AgentDaemon> agent;
  std::vector<std::unique_ptr<net::NetServerDaemon>> servers;
  std::shared_ptr<wire::TcpTransport> client;

  /// A nearly frozen clock: every request lands at sim time ~0, so the
  /// sequential drive and the burst see the same decision instants.
  LiveWorld() : clock(1e-6) {
    net::AgentDaemonConfig agentConfig;
    agentConfig.heuristic = "hmct";
    agent = std::make_unique<net::AgentDaemon>(agentConfig, clock);
    // Registration order is fixed by connecting one server at a time, so the
    // candidate order (and any tie-break) matches the reference agent.
    const double speeds[] = {1.0, 2.0, 4.0};
    const char* names[] = {"alpha", "beta", "gamma"};
    for (std::size_t s = 0; s < 3; ++s) {
      net::NetServerConfig serverConfig;
      serverConfig.agentPorts = {agent->port()};
      serverConfig.machine.name = names[s];
      serverConfig.speedIndex = speeds[s];
      auto server = std::make_unique<net::NetServerDaemon>(serverConfig, clock);
      server->connect();
      const net::WallDeadline deadline(30.0);
      while (agent->liveServerCount() != s + 1 && !deadline.passed()) {
        agent->runOnce();
        server->runOnce();
      }
      servers.push_back(std::move(server));
    }
    client = wire::TcpTransport::connect("127.0.0.1", agent->port());
  }

  void sendRequest(std::uint64_t taskId) {
    wire::ScheduleRequestMsg msg;
    msg.taskId = taskId;
    msg.problem = "burst";
    msg.inMB = 2.0;
    msg.refSeconds = 40.0;
    msg.outMB = 1.0;
    msg.memMB = 0.0;
    client->send(wire::MessageType::kScheduleRequest, wire::encode(msg));
  }

  /// False when the decisions never arrived within the wall deadline.
  bool pumpUntilDecisions(std::uint64_t n) {
    const net::WallDeadline deadline(30.0);
    while (agent->agent().scheduleDecisions() < n) {
      if (deadline.passed()) return false;
      agent->runOnce();
      for (auto& s : servers) s->runOnce();
    }
    return true;
  }

  /// Chosen server per task id, in task-id order.
  std::vector<std::string> placements() const {
    std::vector<std::string> out;
    for (const metrics::TaskOutcome& o : agent->agent().collectOutcomes()) {
      out.push_back(o.server);
    }
    return out;
  }
};

TEST(Batching, LiveBurstMatchesSequentialAndSimulatorPlacements) {
  constexpr std::uint64_t kTasks = 8;

  // Burst: all requests written before the daemon polls, so they drain into
  // (at most a few) scheduleBatch calls within single poll cycles.
  LiveWorld burst;
  for (std::uint64_t id = 1; id <= kTasks; ++id) burst.sendRequest(id);
  ASSERT_TRUE(burst.pumpUntilDecisions(kTasks));

  // Sequential: one request per poll cycle - every batch has size one.
  LiveWorld sequential;
  for (std::uint64_t id = 1; id <= kTasks; ++id) {
    sequential.sendRequest(id);
    ASSERT_TRUE(sequential.pumpUntilDecisions(id));
  }

  const std::vector<std::string> burstPlacements = burst.placements();
  const std::vector<std::string> sequentialPlacements = sequential.placements();
  ASSERT_EQ(burstPlacements.size(), kTasks);
  EXPECT_EQ(burstPlacements, sequentialPlacements);

  // Reference: a bare scheduling core fed the same registry and the same
  // burst as ONE scheduleBatch must place identically (sim/live equivalence
  // of the batch entry point).
  struct NullDispatch final : cas::TaskDispatch {
    void submitTask(std::uint64_t, const psched::ExecRequest&) override {}
  };
  simcore::Simulator sim;
  cas::AgentConfig agentConfig;
  agentConfig.controlLatency = net::AgentDaemonConfig{}.controlLatency;
  cas::Agent reference(sim, core::makeScheduler("hmct", 7), platform::CostModel{},
                       agentConfig);
  NullDispatch dispatch;
  const double speeds[] = {1.0, 2.0, 4.0};
  const char* names[] = {"alpha", "beta", "gamma"};
  for (std::size_t s = 0; s < 3; ++s) {
    const psched::MachineSpec spec;  // wire registration sends these defaults
    core::ServerModel model{names[s], spec.bwInMBps, spec.bwOutMBps, spec.latencyIn,
                            spec.latencyOut};
    reference.registerServer(&dispatch, model, {"*"}, spec.ramMB,
                             spec.ramMB + spec.swapMB);
    reference.setServerSpeedIndex(names[s], speeds[s]);
  }
  std::vector<workload::TaskInstance> tasks;
  for (std::uint64_t id = 1; id <= kTasks; ++id) {
    workload::TaskInstance t;
    t.index = id;
    t.arrival = 0.0;
    t.type = workload::makeSyntheticType("burst", 2.0, 40.0, 1.0, 0.0);
    tasks.push_back(std::move(t));
  }
  reference.scheduleBatch(tasks);
  std::vector<std::string> referencePlacements;
  for (const metrics::TaskOutcome& o : reference.collectOutcomes()) {
    referencePlacements.push_back(o.server);
  }
  EXPECT_EQ(burstPlacements, referencePlacements);
}

// ---- zero allocations on the steady-state decision path -------------------

TEST(Batching, SteadyStateDecisionsDoNotAllocate) {
#if CASCHED_COUNT_ALLOCS
  struct Sink final : cas::TaskDispatch {
    const std::string* lastServer = nullptr;
    std::uint64_t lastTask = 0;
    std::string server;
    void submitTask(std::uint64_t taskId, const psched::ExecRequest&) override {
      lastServer = &server;
      lastTask = taskId;
    }
  };

  simcore::Simulator sim;
  cas::AgentConfig cfg;
  cfg.controlLatency = 0.0;
  cas::Agent agent(sim, core::makeScheduler("hmct", 1), platform::CostModel{}, cfg);
  std::vector<std::unique_ptr<Sink>> sinks;
  const std::string* lastServer = nullptr;
  std::uint64_t lastTask = 0;
  for (std::size_t s = 0; s < 8; ++s) {
    auto sink = std::make_unique<Sink>();
    sink->server = "server-" + std::to_string(s);
    core::ServerModel model{sink->server, 10.0, 10.0, 0.05, 0.05};
    agent.registerServer(sink.get(), model, {"*"}, 1e18, 1e18);
    sinks.push_back(std::move(sink));
  }
  agent.setExpectedTasks(4096);  // pre-size the task tables

  std::uint64_t nextId = 1;
  const workload::TaskType warmType =
      workload::makeSyntheticType("warm", 1.0, 1e9, 1.0, 0.0);
  const workload::TaskType taskType =
      workload::makeSyntheticType("steady", 5.0, 60.0, 2.0, 0.0);
  const auto decideOne = [&](const workload::TaskType& type, bool complete) {
    workload::TaskInstance t;
    t.index = nextId++;
    t.arrival = sim.now();
    t.type = type;
    agent.requestSchedule(t);
    sim.run();
    for (const auto& sink : sinks) {
      if (sink->lastTask == t.index) {
        lastServer = sink->lastServer;
        lastTask = sink->lastTask;
      }
    }
    if (complete) agent.onTaskCompleted(*lastServer, lastTask, sim.now() + 1.0, 60.0);
  };

  // Warm load that never completes, then enough cycles to reach every
  // buffer's high-water capacity (scratch vectors, event arena, HTM rows).
  for (std::size_t w = 0; w < 32; ++w) decideOne(warmType, false);
  for (std::size_t i = 0; i < 512; ++i) decideOne(taskType, true);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < 256; ++i) decideOne(taskType, true);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << (after - before) << " heap allocations in 256 steady-state decisions";
#else
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#endif
}

}  // namespace
}  // namespace casched
