// Tests of the distributed runtime (src/net): daemons speaking the wire
// protocol over real TCP loopback sockets, pumped cooperatively so every
// assertion runs on one thread. Covers heartbeat-timeout retirement, fault-
// tolerant re-submission after a server crash mid-task, live churn, and
// count-level agreement between a live loopback run and the simulator on the
// same registry scenario. The TurnWait tests are the exception to the single
// thread: they run the blocking run() loops on their own threads and observe
// them only from outside (thread CPU clock, sockets, the stop flag).

#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "net/agent_daemon.hpp"
#include "net/client_driver.hpp"
#include "net/loopback.hpp"
#include "net/server_daemon.hpp"
#include "net/turn_wait.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/generate.hpp"
#include "scenario/registry.hpp"
#include "simcore/engine.hpp"
#include "workload/task_types.hpp"

namespace casched::net {
namespace {

/// Round-robins the given pumps until `pred` holds or `wallSeconds` elapse;
/// true when the predicate was reached.
bool pumpUntil(const std::vector<std::function<void()>>& pumps,
               const std::function<bool()>& pred, double wallSeconds) {
  const WallDeadline deadline(wallSeconds);
  while (!pred()) {
    if (deadline.passed()) return false;
    for (const auto& pump : pumps) pump();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(Simulator, AdvanceToMovesClockWithoutEvents) {
  simcore::Simulator sim;
  sim.advanceTo(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  int fired = 0;
  sim.scheduleAt(12.0, [&] { ++fired; });
  sim.advanceTo(11.0);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 11.0);
  sim.advanceTo(15.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 15.0);
  // Going backwards is a no-op.
  sim.advanceTo(3.0);
  EXPECT_DOUBLE_EQ(sim.now(), 15.0);
}

TEST(NetRuntime, RegistrationOverTcp) {
  const PacedClock clock(1000.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig serverConfig;
  serverConfig.agentPorts = {agent.port()};
  serverConfig.machine.name = "alpha";
  NetServerDaemon server(serverConfig, clock);
  server.connect();

  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { server.runOnce(); }},
                        [&] { return agent.liveServerCount() == 1 && server.registered(); },
                        5.0));
  EXPECT_TRUE(agent.serverKnown("alpha"));
  EXPECT_TRUE(agent.agent().htm().hasServer("alpha"));
  EXPECT_FALSE(agent.serverRetired("alpha"));
}

TEST(NetRuntime, StatsRequestReturnsTheMetricsRegistryOverTheWire) {
  const PacedClock clock(1000.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.agentName = "agent-stats";
  AgentDaemon agent(agentConfig, clock);

  auto operatorLink = wire::TcpTransport::connect("127.0.0.1", agent.port());
  wire::StatsRequestMsg request;
  request.format = "prometheus";
  operatorLink->send(wire::MessageType::kStatsRequest, wire::encode(request));

  wire::StatsReplyMsg reply;
  bool got = false;
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); },
                         [&] {
                           operatorLink->poll([&](wire::Frame frame) {
                             if (frame.type != wire::MessageType::kStatsReply) return;
                             reply = wire::decodeStatsReply(frame.payload);
                             got = true;
                           });
                         }},
                        [&] { return got; }, 5.0));
  EXPECT_EQ(reply.agentName, "agent-stats");
  EXPECT_EQ(reply.format, "prometheus");
  // The wire counters instrument this very exchange, so the body is never
  // empty and always carries them.
  EXPECT_NE(reply.body.find("casched_net_frames_in_total"), std::string::npos);

  // An unknown format comes back as a typed error naming the valid ones,
  // without dropping the connection.
  request.format = "xml";
  operatorLink->send(wire::MessageType::kStatsRequest, wire::encode(request));
  got = false;
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); },
                         [&] {
                           operatorLink->poll([&](wire::Frame frame) {
                             if (frame.type != wire::MessageType::kStatsReply) return;
                             reply = wire::decodeStatsReply(frame.payload);
                             got = true;
                           });
                         }},
                        [&] { return got; }, 5.0));
  EXPECT_EQ(reply.format, "error");
  EXPECT_NE(reply.body.find("unknown stats format 'xml'"), std::string::npos);
  EXPECT_FALSE(operatorLink->closed());
}

TEST(NetRuntime, LiveNameCollisionIsRejected) {
  const PacedClock clock(1000.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig serverConfig;
  serverConfig.agentPorts = {agent.port()};
  serverConfig.machine.name = "taken";
  NetServerDaemon original(serverConfig, clock);
  original.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { original.runOnce(); }},
                        [&] { return original.registered(); }, 5.0));

  // A second daemon claiming the same live name must be refused; the
  // original registration keeps working.
  NetServerDaemon impostor(serverConfig, clock);
  impostor.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { original.runOnce(); },
                         [&] { impostor.runOnce(); }},
                        [&] { return !impostor.connected(); }, 5.0));
  EXPECT_FALSE(impostor.registered());
  EXPECT_EQ(agent.liveServerCount(), 1u);
  EXPECT_TRUE(original.connected());
}

TEST(NetRuntime, HeartbeatTimeoutRetiresSilentServer) {
  const PacedClock clock(1000.0);  // 20 sim seconds pass in 20 wall ms
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.heartbeatTimeout = 20.0;
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig serverConfig;
  serverConfig.agentPorts = {agent.port()};
  serverConfig.machine.name = "ghost";
  serverConfig.heartbeatPeriod = 2.0;
  NetServerDaemon server(serverConfig, clock);
  server.connect();

  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { server.runOnce(); }},
                        [&] { return agent.liveServerCount() == 1; }, 5.0));

  // The server process "stalls": no more pumping, no more heartbeats. The
  // agent's missed-report deadline must retire the HTM row.
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }},
                        [&] { return agent.serverRetired("ghost"); }, 5.0));
  EXPECT_FALSE(agent.agent().htm().hasServer("ghost"));
  EXPECT_EQ(agent.retiredServerCount(), 1u);
  EXPECT_EQ(agent.liveServerCount(), 0u);

  // Retirement closed the link, so when the stalled daemon resumes it
  // notices, re-dials and re-registers - the row is revived.
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { server.runOnce(); }},
                        [&] { return !agent.serverRetired("ghost") &&
                                     agent.agent().htm().hasServer("ghost"); },
                        5.0));
  EXPECT_EQ(agent.liveServerCount(), 1u);
}

TEST(NetRuntime, ReconnectAfterRetirementRevivesServer) {
  const PacedClock clock(1000.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.heartbeatTimeout = 15.0;
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig serverConfig;
  serverConfig.agentPorts = {agent.port()};
  serverConfig.machine.name = "phoenix";
  {
    NetServerDaemon first(serverConfig, clock);
    first.connect();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { first.runOnce(); }},
                          [&] { return agent.liveServerCount() == 1; }, 5.0));
  }  // transport closes; heartbeats stop
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }},
                        [&] { return agent.serverRetired("phoenix"); }, 5.0));

  // A fresh daemon under the same name re-registers and revives the row.
  NetServerDaemon second(serverConfig, clock);
  second.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { second.runOnce(); }},
                        [&] { return !agent.serverRetired("phoenix") &&
                                     second.registered(); },
                        5.0));
  EXPECT_TRUE(agent.agent().htm().hasServer("phoenix"));
  EXPECT_EQ(agent.liveServerCount(), 1u);
}

TEST(NetRuntime, CrashMidTaskTriggersResubmissionOverTheWire) {
  const PacedClock clock(500.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.faultTolerance = true;
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig configA;
  configA.agentPorts = {agent.port()};
  configA.machine.name = "doomed";
  NetServerDaemon serverA(configA, clock);
  serverA.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); }},
                        [&] { return agent.liveServerCount() == 1; }, 5.0));

  // Two long tasks; with only "doomed" registered they must land there.
  workload::Metatask metatask;
  metatask.name = "crashy";
  for (std::uint64_t i = 0; i < 2; ++i) {
    workload::TaskInstance task;
    task.index = i;
    task.arrival = 0.0;
    task.type = workload::makeSyntheticType("crash-test", 0.0, 50.0, 0.0, 0.0);
    metatask.tasks.push_back(task);
  }
  ClientConfig clientConfig;
  clientConfig.agentPort = agent.port();
  ClientDriver client(clientConfig, clock);
  client.connect();
  client.start(metatask);

  const std::vector<std::function<void()>> all = {
      [&] { agent.runOnce(); }, [&] { serverA.runOnce(); }, [&] { client.runOnce(); }};
  ASSERT_TRUE(pumpUntil(all, [&] { return serverA.activeTasks() == 2; }, 5.0));

  // A second server joins, then the first crashes with both tasks in flight.
  NetServerConfig configB;
  configB.agentPorts = {agent.port()};
  configB.machine.name = "rescue";
  NetServerDaemon serverB(configB, clock);
  serverB.connect();
  const std::vector<std::function<void()>> withB = {
      [&] { agent.runOnce(); }, [&] { serverA.runOnce(); },
      [&] { serverB.runOnce(); }, [&] { client.runOnce(); }};
  ASSERT_TRUE(pumpUntil(withB, [&] { return agent.liveServerCount() == 2; }, 5.0));
  ASSERT_TRUE(serverA.crash());

  ASSERT_TRUE(pumpUntil(withB, [&] { return client.done(); }, 10.0));
  EXPECT_EQ(client.completedCount(), 2u);
  EXPECT_EQ(client.failedCount(), 0u);

  const std::vector<metrics::TaskOutcome> outcomes = agent.agent().collectOutcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_GE(countResubmissions(outcomes), 2u);
  for (const metrics::TaskOutcome& o : outcomes) {
    EXPECT_EQ(o.status, metrics::TaskStatus::kCompleted);
    EXPECT_EQ(o.server, "rescue");  // re-submitted away from the crashed server
  }
}

TEST(NetRuntime, GracefulLeaveDrainsTasksLongerThanHeartbeatTimeout) {
  const PacedClock clock(500.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.faultTolerance = true;
  agentConfig.heartbeatTimeout = 20.0;
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig serverConfig;
  serverConfig.agentPorts = {agent.port()};
  serverConfig.machine.name = "leaver";
  serverConfig.heartbeatPeriod = 2.0;
  NetServerDaemon server(serverConfig, clock);
  server.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { server.runOnce(); }},
                        [&] { return agent.liveServerCount() == 1; }, 5.0));

  // One task three times longer than the heartbeat timeout, then leave while
  // it runs: the drain must outlive the deadline and still complete.
  workload::Metatask metatask;
  metatask.name = "slow-drain";
  workload::TaskInstance task;
  task.index = 0;
  task.arrival = 0.0;
  task.type = workload::makeSyntheticType("drain-test", 0.0, 60.0, 0.0, 0.0);
  metatask.tasks.push_back(task);

  ClientConfig clientConfig;
  clientConfig.agentPort = agent.port();
  ClientDriver client(clientConfig, clock);
  client.connect();
  client.start(metatask);
  const std::vector<std::function<void()>> all = {
      [&] { agent.runOnce(); }, [&] { server.runOnce(); }, [&] { client.runOnce(); }};
  ASSERT_TRUE(pumpUntil(all, [&] { return server.activeTasks() == 1; }, 5.0));

  server.leave();
  ASSERT_TRUE(pumpUntil(all, [&] { return client.done(); }, 10.0));
  EXPECT_EQ(client.completedCount(), 1u);
  // The drained daemon closes its link after the idle linger window.
  ASSERT_TRUE(pumpUntil(all, [&] { return server.left(); }, 5.0));
  const std::vector<metrics::TaskOutcome> outcomes = agent.agent().collectOutcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].attempts, 1);  // drained, not resubmitted
}

TEST(NetRuntime, LeaverDyingMidDrainFallsBackToResubmission) {
  const PacedClock clock(500.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.faultTolerance = true;
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig configB;
  configB.agentPorts = {agent.port()};
  configB.machine.name = "backup";
  NetServerDaemon serverB(configB, clock);

  ClientConfig clientConfig;
  clientConfig.agentPort = agent.port();
  ClientDriver client(clientConfig, clock);

  {
    NetServerConfig configA;
    configA.agentPorts = {agent.port()};
    configA.machine.name = "quitter";
    NetServerDaemon serverA(configA, clock);
    serverA.connect();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); }},
                          [&] { return agent.liveServerCount() == 1; }, 5.0));

    workload::Metatask metatask;
    metatask.name = "mid-drain-death";
    workload::TaskInstance task;
    task.index = 0;
    task.arrival = 0.0;
    task.type = workload::makeSyntheticType("drain-death", 0.0, 80.0, 0.0, 0.0);
    metatask.tasks.push_back(task);
    client.connect();
    client.start(metatask);
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); },
                           [&] { client.runOnce(); }},
                          [&] { return serverA.activeTasks() == 1; }, 5.0));

    serverB.connect();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); },
                           [&] { serverB.runOnce(); }},
                          [&] { return agent.liveServerCount() == 2; }, 5.0));

    // Announce the departure, wait until the agent has digested the
    // down-notice (its core in-flight view empties into the drain record),
    // then "die" mid-drain: the daemon goes out of scope, closing the link
    // without completing the task.
    serverA.leave();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); }},
                          [&] { return agent.agent().inFlightTasks("quitter").empty(); },
                          5.0));
  }

  // The agent must recover the interrupted drain via its own record.
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverB.runOnce(); },
                         [&] { client.runOnce(); }},
                        [&] { return client.done(); }, 10.0));
  EXPECT_EQ(client.completedCount(), 1u);
  const std::vector<metrics::TaskOutcome> outcomes = agent.agent().collectOutcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].server, "backup");
  EXPECT_GE(outcomes[0].attempts, 2);
}

TEST(NetRuntime, DeadServerProcessAbandonsTasksToResubmission) {
  const PacedClock clock(500.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.faultTolerance = true;
  AgentDaemon agent(agentConfig, clock);

  ClientConfig clientConfig;
  clientConfig.agentPort = agent.port();
  ClientDriver client(clientConfig, clock);

  NetServerConfig configB;
  configB.agentPorts = {agent.port()};
  configB.machine.name = "survivor";
  NetServerDaemon serverB(configB, clock);

  {
    NetServerConfig configA;
    configA.agentPorts = {agent.port()};
    configA.machine.name = "vanisher";
    NetServerDaemon serverA(configA, clock);
    serverA.connect();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); }},
                          [&] { return agent.liveServerCount() == 1; }, 5.0));

    workload::Metatask metatask;
    metatask.name = "abandoned";
    for (std::uint64_t i = 0; i < 2; ++i) {
      workload::TaskInstance task;
      task.index = i;
      task.arrival = 0.0;
      task.type = workload::makeSyntheticType("abandon-test", 0.0, 100.0, 0.0, 0.0);
      metatask.tasks.push_back(task);
    }
    client.connect();
    client.start(metatask);
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); },
                           [&] { client.runOnce(); }},
                          [&] { return serverA.activeTasks() == 2; }, 5.0));

    serverB.connect();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); },
                           [&] { serverB.runOnce(); }},
                          [&] { return agent.liveServerCount() == 2; }, 5.0));
  }  // serverA's process "dies": its socket closes without any victim report

  // The agent must fail the abandoned tasks itself and re-submit them to the
  // survivor; the client still gets both completions.
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverB.runOnce(); },
                         [&] { client.runOnce(); }},
                        [&] { return client.done(); }, 10.0));
  EXPECT_EQ(client.completedCount(), 2u);
  const std::vector<metrics::TaskOutcome> outcomes = agent.agent().collectOutcomes();
  EXPECT_GE(countResubmissions(outcomes), 2u);
  for (const metrics::TaskOutcome& o : outcomes) {
    EXPECT_EQ(o.server, "survivor");
  }
}

TEST(NetRuntime, LiveLoopbackScenarioMatchesSimulatorCounts) {
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 30.0;
  const LiveRunReport live = runLoopbackScenario("live-loopback", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.tasks, 24u);
  EXPECT_EQ(live.churnApplied.leaves, 1u);
  EXPECT_EQ(live.churnApplied.joins, 1u);
  EXPECT_EQ(live.serversStarted, 4u);  // 3 initial + 1 joiner

  const scenario::CompiledScenario compiled =
      scenario::compileScenario(scenario::findScenario("live-loopback"), options.seed);
  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(sim.churn.leaves, 1u);
  EXPECT_EQ(sim.churn.joins, 1u);

  // The acceptance bar: completed / lost / resubmitted counts agree between
  // the live TCP deployment and the simulator on the same compiled spec.
  EXPECT_EQ(live.completed, sim.completedCount());
  EXPECT_EQ(live.lost, sim.lostCount());
  EXPECT_EQ(live.resubmissions, countResubmissions(sim.tasks));

  // And the JSON record carries the counts.
  const std::string json = liveRunJson(live);
  EXPECT_NE(json.find("\"completed\": 24"), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"live-loopback\""), std::string::npos);
}

TEST(NetRuntime, SimAndLiveProduceTheSamePerTaskSpanChains) {
  // The observability acceptance bar: because every lifecycle span except
  // kStart is recorded inside the shared cas::Agent core (and kStart by the
  // machine-side submit hook on both sides), the live TCP deployment and the
  // simulator emit the SAME per-task phase chain for the same scenario seed.
  obs::TraceBuffer& trace = obs::TraceBuffer::global();
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 30.0;

  trace.enable(1 << 16);
  const LiveRunReport live = runLoopbackScenario("live-loopback", options);
  const auto liveChains = obs::taskPhaseChains(trace.snapshot());
  const std::uint64_t liveDropped = trace.dropped();

  trace.enable(1 << 16);  // reset the ring for the simulator's spans
  const scenario::CompiledScenario compiled =
      scenario::compileScenario(scenario::findScenario("live-loopback"), options.seed);
  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  const auto simChains = obs::taskPhaseChains(trace.snapshot());
  trace.disable();

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(liveDropped, 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  ASSERT_EQ(liveChains.size(), compiled.metatask.size());
  ASSERT_EQ(simChains.size(), compiled.metatask.size());
  for (const auto& [taskId, chain] : simChains) {
    ASSERT_TRUE(liveChains.count(taskId) != 0) << "task " << taskId;
    EXPECT_EQ(liveChains.at(taskId), chain) << "task " << taskId;
  }
  // Spot-check the canonical happy-path chain shape.
  EXPECT_EQ(simChains.begin()->second, "submit>predict>decide>dispatch>start>complete");
  (void)sim;
}

TEST(NetRuntime, GeneratedChurnReplaysIdenticallyLiveAndSimulated) {
  // The acceptance bar for the stochastic churn engine: the live TCP
  // deployment and the simulator compile one scenario + seed into the SAME
  // generated fault timeline (equal digests), and under that churn - Markov
  // flapping killing in-flight work - the fault-tolerant run completes every
  // task on both sides.
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 45.0;
  const LiveRunReport live = runLoopbackScenario("churn/flapping", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_GT(live.generatedChurn, 0u);
  EXPECT_EQ(live.churnSkipped, 0u);  // every dispatched event found its daemon
  EXPECT_GE(live.churnPlanned.crashes, 1u);
  EXPECT_GT(live.churnPlanned.meanDowntime, 0.0);

  const scenario::CompiledScenario compiled =
      scenario::compileScenario(scenario::findScenario("churn/flapping"), options.seed);
  EXPECT_EQ(compiled.generatedChurn, live.generatedChurn);
  EXPECT_EQ(scenario::churnTimelineDigest(compiled.churn), live.churnDigest);

  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(live.completed, sim.completedCount());
  EXPECT_EQ(live.lost, sim.lostCount());
  EXPECT_EQ(live.lost, 0u);
  EXPECT_EQ(live.completed, compiled.metatask.size());

  // The JSON record proves the replay (digest + planned summary travel).
  const std::string json = liveRunJson(live);
  EXPECT_NE(json.find("\"churn_digest\""), std::string::npos);
  EXPECT_NE(json.find("\"generated_churn\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_downtime\""), std::string::npos);
}

TEST(NetRuntime, TraceDrivenFaultsReplayIdenticallyLiveAndSimulated) {
  // The trace-driven [faults] extension holds the same invariant as the
  // stochastic engine: a recorded down/up timeline (plus the scenario's
  // diurnally-modulated crash process) compiles into ONE timeline both sides
  // replay - equal FNV digests, equal counts, zero lost under fault
  // tolerance.
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 11;
  options.wallTimeoutSeconds = 45.0;
  const LiveRunReport live = runLoopbackScenario("churn/trace_replay", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_GT(live.generatedChurn, 0u);
  EXPECT_EQ(live.churnSkipped, 0u);
  EXPECT_GE(live.churnPlanned.crashes, 3u);  // at least the replayed trace

  const scenario::CompiledScenario compiled = scenario::compileScenario(
      scenario::findScenario("churn/trace_replay"), options.seed);
  EXPECT_EQ(compiled.generatedChurn, live.generatedChurn);
  EXPECT_EQ(scenario::churnTimelineDigest(compiled.churn), live.churnDigest);

  // The trace rows themselves are in the compiled timeline: grid-1 down at
  // t=10 for 18 s is the first recorded event of the scenario's trace.
  bool sawTraceCrash = false;
  for (const cas::ChurnEvent& e : compiled.churn) {
    if (e.server == "grid-1" && e.time == 10.0 && e.duration == 18.0) {
      sawTraceCrash = true;
    }
  }
  EXPECT_TRUE(sawTraceCrash);

  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(live.completed, sim.completedCount());
  EXPECT_EQ(live.lost, sim.lostCount());
  EXPECT_EQ(live.lost, 0u);
  EXPECT_EQ(live.completed, compiled.metatask.size());
}

TEST(NetRuntime, LiveServersDrawTheSimulatedNoiseFactors) {
  // The loopback harness configures each server as the simulator does, so at
  // one seed every live server redraws the CPU and link noise factors of its
  // simulated twin, window by window. Both timelines start at sim time 0.
  const scenario::CompiledScenario compiled =
      scenario::compileScenario(scenario::findScenario("paper/table7_wastecpu_low"), 1);
  const cas::SystemConfig& system = compiled.system;
  ASSERT_GT(system.cpuNoise.amplitude, 0.0);
  ASSERT_GT(system.linkNoise.amplitude, 0.0);
  ASSERT_EQ(system.cpuNoise.period, system.linkNoise.period);
  const double period = system.cpuNoise.period;
  const std::vector<psched::MachineSpec>& specs = compiled.testbed.servers;
  constexpr std::size_t kWindows = 8;
  using Factors = std::pair<double, double>;  // cpu, link

  cas::GridSystem grid(compiled.testbed, compiled.metatask, "msf", system);
  std::vector<std::vector<Factors>> simulated(specs.size());
  for (std::size_t k = 0; k < kWindows; ++k) {
    grid.simulator().advanceTo((static_cast<double>(k) + 0.5) * period);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const cas::ServerNode& node = grid.server(specs[i].name);
      simulated[i].push_back({node.cpuNoiseFactor(), node.linkNoiseFactor()});
    }
  }

  const PacedClock clock(100.0);
  AgentDaemon agent(AgentDaemonConfig{}, clock);
  std::vector<std::unique_ptr<NetServerDaemon>> servers;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    NetServerConfig config = loopbackServerConfig(system, i, specs[i], 1.0);
    config.agentPorts = {agent.port()};
    servers.push_back(std::make_unique<NetServerDaemon>(config, clock));
    servers.back()->connect();
  }
  // Sampled after every turn; a stalled turn may skip a window, never
  // mislabel one.
  std::vector<std::set<std::size_t>> windowsSeen(specs.size());
  std::vector<std::function<void()>> pumps{[&] { agent.runOnce(); }};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    pumps.push_back([&, i] {
      NetServerDaemon& server = *servers[i];
      server.runOnce();
      const auto k = static_cast<std::size_t>(server.simulator().now() / period);
      if (k >= kWindows) return;
      EXPECT_EQ(Factors(server.node().cpuNoiseFactor(), server.node().linkNoiseFactor()),
                simulated[i][k])
          << specs[i].name << " window " << k;
      windowsSeen[i].insert(k);
    });
  }
  ASSERT_TRUE(pumpUntil(
      pumps,
      [&] {
        for (const auto& server : servers) {
          if (server->simulator().now() < kWindows * period) return false;
        }
        return true;
      },
      10.0));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_GE(windowsSeen[i].size(), kWindows / 2) << specs[i].name;
  }
}

TEST(MultiAgent, MutualPeerConfigurationKeepsOneLinkPerPair) {
  // Operators naturally configure both agents with each other's address; the
  // hello exchange must collapse the resulting double link to the one dialed
  // by the lexicographically smaller name, or every sync would run twice.
  const PacedClock clock(1000.0);
  AgentDaemonConfig configA;
  configA.agentName = "alpha";
  configA.syncPeriod = 2.0;
  AgentDaemonConfig configB = configA;
  configB.agentName = "beta";
  AgentDaemon alpha(configA, clock);
  AgentDaemon beta(configB, clock);
  alpha.addPeer("127.0.0.1:" + std::to_string(beta.port()));
  beta.addPeer("127.0.0.1:" + std::to_string(alpha.port()));

  const std::vector<std::function<void()>> pumps = {[&] { alpha.runOnce(); },
                                                    [&] { beta.runOnce(); }};
  ASSERT_TRUE(pumpUntil(pumps,
                        [&] {
                          return alpha.syncsReceived() > 2 && beta.syncsReceived() > 2 &&
                                 alpha.connectedPeerCount() == 1 &&
                                 beta.connectedPeerCount() == 1;
                        },
                        5.0));
  // And the single link is stable: more pumping never resurrects a duplicate.
  const WallDeadline settle(0.3);
  while (!settle.passed()) {
    for (const auto& pump : pumps) pump();
  }
  EXPECT_EQ(alpha.connectedPeerCount(), 1u);
  EXPECT_EQ(beta.connectedPeerCount(), 1u);
}

TEST(MultiAgent, ReplicatedDeploymentMatchesSimulatorCounts) {
  // Acceptance bar: a 2-agent replicated deployment with no churn behaves
  // exactly like the single-agent one - every task flows through the primary
  // while the replica stays warm via kAgentSync - so its completed / lost /
  // resubmitted counts equal the simulator's on the same compiled spec.
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 30.0;
  const LiveRunReport live = runLoopbackScenario("multi-agent-loopback", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.tasks, 24u);
  EXPECT_EQ(live.agentsDeployed, 2u);
  EXPECT_EQ(live.agentMode, "replicated");
  EXPECT_EQ(live.agentCrashes, 0u);
  // The replica actually replicated: syncs flowed and it adopted rows for
  // servers it does not serve.
  EXPECT_GT(live.peerSyncs, 0u);
  EXPECT_GT(live.peerRowsAdopted, 0u);
  ASSERT_EQ(live.perAgent.size(), 2u);
  EXPECT_EQ(live.perAgent[0].tasks, 24u);  // primary saw everything
  EXPECT_EQ(live.perAgent[1].tasks, 0u);   // replica stayed passive

  const scenario::CompiledScenario compiled = scenario::compileScenario(
      scenario::findScenario("multi-agent-loopback"), options.seed);
  EXPECT_EQ(compiled.agents.count, 2u);
  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(live.completed, sim.completedCount());
  EXPECT_EQ(live.lost, sim.lostCount());
  EXPECT_EQ(live.resubmissions, countResubmissions(sim.tasks));

  const std::string json = liveRunJson(live);
  EXPECT_NE(json.find("\"deployed\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"replicated\""), std::string::npos);
  EXPECT_NE(json.find("\"per_agent\""), std::string::npos);
}

TEST(MultiAgent, AgentCrashFailsOverWithZeroLostTasks) {
  // Acceptance bar: the primary agent crashes mid-run with work in flight;
  // servers re-dial the replica (which adopted the crashed agent's HTM rows
  // from its snapshot syncs), the client fails over its open tasks, and the
  // run still finishes with zero permanently-lost tasks.
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 60.0;
  const LiveRunReport live = runLoopbackScenario("multi-agent-failover", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.tasks, 24u);
  EXPECT_EQ(live.agentCrashes, 1u);
  EXPECT_EQ(live.agentRestarts, 0u);
  EXPECT_EQ(live.completed, 24u);
  EXPECT_EQ(live.lost, 0u);
  // The snapshot existed on the survivor before the crash...
  EXPECT_GT(live.peerSyncs, 0u);
  EXPECT_GT(live.peerRowsAdopted, 0u);
  // ...and the failover actually exercised both migration paths.
  EXPECT_GT(live.clientFailovers, 0u);
  ASSERT_EQ(live.perAgent.size(), 2u);
  EXPECT_GT(live.perAgent[1].tasks, 0u);  // the survivor scheduled work
}

TEST(MultiAgent, RestartedAgentWarmStartsFromSnapshotFile) {
  // Same failover scenario, but the crashed agent comes back 20 simulated
  // seconds later: the fresh daemon must warm-start from the snapshot file
  // its previous incarnation kept writing. The migrated deployment stays on
  // the survivor (sticky client primary), so the run still loses nothing.
  scenario::ScenarioSpec spec = scenario::findScenario("multi-agent-failover");
  ASSERT_EQ(spec.agents.events.size(), 1u);
  spec.agents.events[0].restartAfter = 20.0;

  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 60.0;
  const LiveRunReport live = runLoopbackScenario(spec, options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.agentCrashes, 1u);
  EXPECT_EQ(live.agentRestarts, 1u);
  EXPECT_GT(live.warmStartRows, 0u);  // the snapshot file warm-started it
  EXPECT_EQ(live.completed, 24u);
  EXPECT_EQ(live.lost, 0u);
}

TEST(MultiAgent, PartitionedDeploymentSpreadsTasksAcrossAgents) {
  // Partitioned mode: each agent owns half the servers, the client spreads
  // tasks round-robin, and load digests give every agent a view of the
  // partitions it does not own.
  scenario::ScenarioSpec spec = scenario::findScenario("multi-agent-loopback");
  spec.agents.mode = "partitioned";

  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 30.0;
  const LiveRunReport live = runLoopbackScenario(spec, options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.completed, 24u);
  EXPECT_EQ(live.lost, 0u);
  ASSERT_EQ(live.perAgent.size(), 2u);
  // Round-robin: both partitions scheduled real work.
  EXPECT_GT(live.perAgent[0].tasks, 0u);
  EXPECT_GT(live.perAgent[1].tasks, 0u);
  EXPECT_EQ(live.perAgent[0].tasks + live.perAgent[1].tasks, 24u);
}

// --- agent mesh over live sockets ----------------------------------------

TEST(MeshLive, SaturatedRescueAgreesWithSimulatorCounts) {
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 90.0;
  const LiveRunReport live = runLoopbackScenario("mesh/saturated_rescue", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.lost, 0u);
  EXPECT_GT(live.mesh.forwards, 0u);
  EXPECT_EQ(live.clientDenies, 0u);
  // Every relay path ran: no agent keeps a parked, handed-off, origin or
  // client entry for a finished task.
  EXPECT_EQ(live.heldTaskEntries, 0u);

  // The acceptance bar: zero lost tasks on both sides at the same seed, which
  // makes the completed counts equal by construction - and locks them.
  const scenario::CompiledScenario compiled = scenario::compileScenario(
      scenario::findScenario("mesh/saturated_rescue"), options.seed);
  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(sim.lostCount(), 0u);
  EXPECT_EQ(live.completed, sim.completedCount());
  EXPECT_EQ(live.tasks, compiled.metatask.size());

  // Rescue really happened over the wire too: some of the saturated
  // partition's tasks ran on the other rack's servers. (agent-0 owns server
  // 0 only; the flat client round-robins, so even metatask indices land on
  // agent-0 first.)
  std::set<std::string> rackB;
  for (const scenario::RackSpec& rack : compiled.mesh.racks) {
    if (rack.agentIndex != 1) continue;
    for (const std::size_t s : rack.servers) {
      rackB.insert(compiled.testbed.servers.at(s).name);
    }
  }
  std::size_t rescued = 0;
  for (const metrics::TaskOutcome& o : live.outcomes) {
    if (o.index % 2 != 0) continue;
    if (o.status == metrics::TaskStatus::kCompleted && rackB.count(o.server) != 0) {
      ++rescued;
    }
  }
  EXPECT_GT(rescued, 0u) << "no task of the saturated partition was rescued";
}

TEST(MeshLive, HierarchyRootRoutesEverythingToTheLeaves) {
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 11;
  options.wallTimeoutSeconds = 60.0;
  const LiveRunReport live = runLoopbackScenario("mesh/hierarchy_4agent", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.lost, 0u);
  // The root owns no rack: every request takes exactly one hop to a leaf.
  EXPECT_EQ(live.mesh.forwards, live.tasks);
  EXPECT_EQ(live.clientDenies, 0u);
  EXPECT_EQ(live.heldTaskEntries, 0u);

  const scenario::CompiledScenario compiled = scenario::compileScenario(
      scenario::findScenario("mesh/hierarchy_4agent"), options.seed);
  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(sim.lostCount(), 0u);
  EXPECT_EQ(live.completed, sim.completedCount());

  const std::string json = liveRunJson(live);
  EXPECT_NE(json.find("\"mesh\""), std::string::npos);
  EXPECT_NE(json.find("\"forwards\": 24"), std::string::npos);
}

TEST(MeshLive, WorkStealingDrainsTheRootQueueOverTheWire) {
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 3;
  options.wallTimeoutSeconds = 60.0;
  const LiveRunReport live = runLoopbackScenario("mesh/steal_tree", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.lost, 0u);
  // Forwarding is off: the serverless root parks everything; the leaves pull
  // every task off its queue over kStealRequest/kStealGrant.
  EXPECT_EQ(live.mesh.forwards, 0u);
  EXPECT_EQ(live.mesh.parked, live.tasks);
  EXPECT_EQ(live.mesh.steals, live.tasks);
  EXPECT_EQ(live.completed, live.tasks);
  EXPECT_EQ(live.heldTaskEntries, 0u);
}

// --- every steal grant is answered --------------------------------------

/// Plays a victim agent over a raw TCP link: says hello, grants `tasks` to
/// the agent under test, and returns the task ids the agent failed back
/// over the link (empty when the wall budget ran out first).
std::set<std::uint64_t> grantFromFakePeer(AgentDaemon& agent,
                                          const std::vector<std::uint64_t>& tasks) {
  auto peer = wire::TcpTransport::connect("127.0.0.1", agent.port());
  wire::AgentHelloMsg hello;
  hello.agentName = "fake-victim";
  peer->send(wire::MessageType::kAgentHello, wire::encode(hello));
  wire::StealGrantMsg grant;
  grant.agentName = hello.agentName;
  for (const std::uint64_t id : tasks) {
    grant.tasks.push_back({id, "stolen-work", 0.0, 0.0, 0.0, 1.0});
  }
  peer->send(wire::MessageType::kStealGrant, wire::encode(grant));

  std::set<std::uint64_t> failed;
  pumpUntil({[&] { agent.runOnce(); },
             [&] {
               peer->poll([&](wire::Frame frame) {
                 if (frame.type != wire::MessageType::kTaskFailed) return;
                 failed.insert(wire::decodeTaskFailed(frame.payload).taskId);
               });
             }},
            [&] { return failed.size() == tasks.size(); }, 3.0);
  return failed;
}

TEST(StealGrant, IdAlreadyHeldHereIsFailedBackToTheVictim) {
  const PacedClock clock(500.0);
  AgentDaemonConfig config;
  config.heuristic = "mct";
  config.agentName = "thief";
  config.mesh.enabled = true;
  config.mesh.stealPeriod = 5.0;  // parking on: unplaceable requests wait
  AgentDaemon agent(config, clock);

  // The agent's own client submits task 7; with no server anywhere it parks.
  auto client = wire::TcpTransport::connect("127.0.0.1", agent.port());
  client->send(wire::MessageType::kScheduleRequest,
               wire::encode(wire::ScheduleRequestMsg{7, "own-work", 0.0, 0.0, 0.0, 1.0}));
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }},
                        [&] { return agent.meshStats().parked == 1; }, 5.0));

  // A peer now grants a task with the same id: it must hear a failure for
  // it (its client is waiting), and the client's own task stays parked.
  EXPECT_EQ(grantFromFakePeer(agent, {7}), (std::set<std::uint64_t>{7}));
  EXPECT_EQ(agent.meshStats().steals, 0u);
  EXPECT_EQ(agent.meshStats().parked, 1u);
}

TEST(StealGrant, AgentWithoutMeshFailsEveryGrantedTaskBackToTheVictim) {
  const PacedClock clock(500.0);
  AgentDaemonConfig config;
  config.heuristic = "mct";
  config.agentName = "no-mesh";
  AgentDaemon agent(config, clock);

  EXPECT_EQ(grantFromFakePeer(agent, {9, 10}), (std::set<std::uint64_t>{9, 10}));
  EXPECT_FALSE(agent.agent().knowsTask(9));
  EXPECT_EQ(agent.heldTaskEntries(), 0u);
}

// --- explicit deny instead of a silent client timeout --------------------

TEST(NetRuntime, AgentWithNoServersDeniesInsteadOfTimingOut) {
  const PacedClock clock(500.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  // Fault tolerance was the silent path: the request sat in the no-server
  // retry loop until the client gave up. Now the daemon answers immediately.
  agentConfig.faultTolerance = true;
  AgentDaemon agent(agentConfig, clock);

  workload::Metatask metatask;
  metatask.name = "denied";
  workload::TaskInstance task;
  task.index = 0;
  task.arrival = 0.0;
  task.type = workload::makeSyntheticType("orphan", 0.0, 1.0, 0.0, 0.0);
  metatask.tasks.push_back(task);

  ClientConfig clientConfig;
  clientConfig.agentPort = agent.port();
  ClientDriver client(clientConfig, clock);
  client.connect();
  client.start(metatask);

  // The deny must settle the task promptly - seconds of wall budget, not the
  // fault-tolerance retry horizon.
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { client.runOnce(); }},
                        [&] { return client.done(); }, 5.0));
  EXPECT_EQ(client.completedCount(), 0u);
  EXPECT_EQ(client.failedCount(), 1u);
  EXPECT_EQ(client.scheduleDenies(), 1u);
}

// --- dynamic resolver ----------------------------------------------------

TEST(NetRuntime, ResolverLearnsPeersAndReranksPastADeadAgent) {
  const PacedClock clock(200.0);

  // Agent B first (its port seeds A's peer list); A dials B, so A's probe
  // replies gossip B's dialable address to the client.
  AgentDaemonConfig configB;
  configB.heuristic = "mct";
  configB.faultTolerance = true;
  configB.agentName = "agent-b";
  auto agentB = std::make_unique<AgentDaemon>(configB, clock);

  AgentDaemonConfig configA;
  configA.heuristic = "mct";
  configA.faultTolerance = true;
  configA.agentName = "agent-a";
  configA.peers.push_back("127.0.0.1:" + std::to_string(agentB->port()));
  auto agentA = std::make_unique<AgentDaemon>(configA, clock);

  NetServerConfig serverConfigA;
  serverConfigA.agentPorts = {agentA->port()};
  serverConfigA.machine.name = "alpha";
  NetServerDaemon serverA(serverConfigA, clock);
  serverA.connect();
  NetServerConfig serverConfigB;
  serverConfigB.agentPorts = {agentB->port()};
  serverConfigB.machine.name = "bravo";
  NetServerDaemon serverB(serverConfigB, clock);
  serverB.connect();

  const auto pumpAll = [&](ClientDriver* client) {
    return std::vector<std::function<void()>>{
        [&] {
          if (agentA) agentA->runOnce();
          if (agentB) agentB->runOnce();
        },
        [&] { serverA.runOnce(); },
        [&] { serverB.runOnce(); },
        [&, client] {
          if (client != nullptr) client->runOnce();
        }};
  };
  ASSERT_TRUE(pumpUntil(pumpAll(nullptr),
                        [&] {
                          return agentA->liveServerCount() == 1 &&
                                 agentB->liveServerCount() == 1 &&
                                 agentA->connectedPeerCount() == 1;
                        },
                        5.0));

  // The client knows only agent A; gossip must teach it agent B.
  ClientConfig clientConfig;
  clientConfig.agentPorts.push_back(agentA->port());
  clientConfig.resolver = true;
  clientConfig.probePeriod = 2.0;
  ClientDriver client(clientConfig, clock);
  client.connect();

  workload::Metatask metatask;
  metatask.name = "resolver-churn";
  for (std::uint64_t i = 0; i < 6; ++i) {
    workload::TaskInstance task;
    task.index = i;
    task.arrival = static_cast<double>(i) * 8.0;
    task.type = workload::makeSyntheticType("probe-work", 0.0, 2.0, 0.0, 0.0);
    metatask.tasks.push_back(task);
  }
  client.start(metatask);

  auto pumps = pumpAll(&client);
  ASSERT_TRUE(pumpUntil(pumps, [&] { return client.completedCount() >= 2; }, 10.0));
  EXPECT_GT(client.resolverStats().probes, 0u);
  ASSERT_EQ(client.resolverStats().learnedPeers, 1u)
      << "gossip never taught the client about agent B";

  // Kill the configured agent mid-run: the resolver must converge on the
  // learned one without losing a single task.
  agentA.reset();
  ASSERT_TRUE(pumpUntil(pumps, [&] { return client.done(); }, 15.0));
  EXPECT_EQ(client.completedCount(), 6u);
  EXPECT_EQ(client.failedCount(), 0u);
  EXPECT_GE(client.resolverStats().reranks, 1u);
  EXPECT_EQ(client.bestRankedLink(), 1u);  // the learned agent-b link
}

// --- event-driven daemon turns -------------------------------------------

/// A daemon's blocking run() loop on its own thread, observed from outside:
/// its CPU time comes from the thread CPU clock (as perfbench reads it), so
/// nothing here touches daemon state while the loop runs.
class DaemonThread {
 public:
  explicit DaemonThread(std::function<void(const std::atomic<bool>&)> body)
      : thread_([this, body = std::move(body)] {
          try {
            body(stop_);
          } catch (const std::exception& e) {
            ADD_FAILURE() << "daemon run() loop threw: " << e.what();
          }
          returned_.store(true);
        }) {}
  ~DaemonThread() { stopAndJoin(); }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  double cpuSeconds() {
    clockid_t id{};
    timespec ts{};
    if (pthread_getcpuclockid(thread_.native_handle(), &id) != 0 ||
        clock_gettime(id, &ts) != 0) {
      ADD_FAILURE() << "cannot read the daemon thread's CPU clock";
      return 0.0;
    }
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }

  /// Share of one core the loop used over the next `wallSeconds`.
  double coreShareOver(double wallSeconds) {
    const double before = cpuSeconds();
    std::this_thread::sleep_for(std::chrono::duration<double>(wallSeconds));
    return (cpuSeconds() - before) / wallSeconds;
  }

  /// Raises the stop flag and joins; wall seconds until run() returned. A
  /// loop that ignores the flag aborts the binary rather than hang it.
  double stopAndJoin() {
    if (!thread_.joinable()) return 0.0;
    const auto t0 = PacedClock::WallClock::now();
    stop_.store(true, std::memory_order_relaxed);
    const WallDeadline deadline(5.0);
    while (!returned_.load()) {
      if (deadline.passed()) {
        std::fprintf(stderr, "daemon run() loop ignored its stop flag for 5 s\n");
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const double seconds =
        std::chrono::duration<double>(PacedClock::WallClock::now() - t0).count();
    thread_.join();
    return seconds;
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<bool> returned_{false};
  std::thread thread_;  ///< last: started after the stop flag exists
};

constexpr double kIdleWindowSeconds = 0.3;
constexpr double kMaxIdleCoreShare = 0.10;
constexpr double kMaxStopSeconds = 0.05;

TEST(TurnWait, TimeoutIsTheWallTimeToTheNextEventWithinTheIdleBound) {
  // Already due (or exactly now): no wait at all.
  EXPECT_EQ(turnTimeoutSeconds(5.0, 10.0, 100.0), 0.0);
  EXPECT_EQ(turnTimeoutSeconds(10.0, 10.0, 100.0), 0.0);
  // A future event: its simulated distance over the clock's scale.
  EXPECT_DOUBLE_EQ(turnTimeoutSeconds(10.05, 10.0, 100.0), (10.05 - 10.0) / 100.0);
  EXPECT_DOUBLE_EQ(turnTimeoutSeconds(3.0, 2.5, 1000.0), 0.5 / 1000.0);
  // No event, or one further away than the bound: the idle bound.
  EXPECT_EQ(turnTimeoutSeconds(simcore::kTimeInfinity, 10.0, 100.0), kIdleTurnBoundSeconds);
  EXPECT_EQ(turnTimeoutSeconds(60.0, 0.0, 1.0), kIdleTurnBoundSeconds);
  EXPECT_DOUBLE_EQ(kIdleTurnBoundSeconds, 0.001);
  // Degenerate inputs never yield a negative or NaN wait.
  const double inf = simcore::kTimeInfinity;
  const double nan = std::nan("");
  for (const double t : {inf, -inf, nan, 0.0, 1.0}) {
    for (const double now : {inf, -inf, nan, 0.0, 1.0}) {
      for (const double scale : {0.0, 1.0, 100.0, inf, nan}) {
        const double wait = turnTimeoutSeconds(t, now, scale);
        EXPECT_FALSE(std::isnan(wait)) << t << " " << now << " " << scale;
        EXPECT_GE(wait, 0.0) << t << " " << now << " " << scale;
        EXPECT_LE(wait, kIdleTurnBoundSeconds) << t << " " << now << " " << scale;
      }
    }
  }
}

TEST(TurnWait, WaitEndsWhenAWatchedSocketTurnsReadableOrTheTimeoutElapses) {
  const auto secondsSince = [](PacedClock::WallClock::time_point t0) {
    return std::chrono::duration<double>(PacedClock::WallClock::now() - t0).count();
  };
  wire::TcpListener listener(0);
  TurnWaiter waiter;

  // Nothing readable: the full timeout passes.
  auto t0 = PacedClock::WallClock::now();
  waiter.watch(listener.fd());
  waiter.wait(0.02);
  EXPECT_GE(secondsSince(t0), 0.015);

  // A pending connection makes the listener readable; the accepted side's
  // schema hello makes the dialer's socket readable. Neither waits out 10 s.
  auto dialer = wire::TcpTransport::connect("127.0.0.1", listener.port());
  t0 = PacedClock::WallClock::now();
  waiter.watch(listener.fd());
  waiter.wait(10.0);
  EXPECT_LT(secondsSince(t0), 5.0);
  auto accepted = listener.accept(0);
  ASSERT_NE(accepted, nullptr);
  t0 = PacedClock::WallClock::now();
  waiter.watch(dialer);
  waiter.wait(10.0);
  EXPECT_LT(secondsSince(t0), 5.0);

  // A closed transport is never watched (its socket would read as ready).
  accepted->close();
  dialer->poll(nullptr);
  ASSERT_TRUE(dialer->closed());
  t0 = PacedClock::WallClock::now();
  waiter.watch(dialer);
  waiter.wait(0.02);
  EXPECT_GE(secondsSince(t0), 0.015);
}

TEST(TurnWait, IdleAgentRunSleepsAndStopsPromptly) {
  const PacedClock clock(1.0);
  AgentDaemon agent(AgentDaemonConfig{}, clock);
  DaemonThread loop([&](const std::atomic<bool>& stop) { agent.run(stop); });
  EXPECT_LT(loop.coreShareOver(kIdleWindowSeconds), kMaxIdleCoreShare);
  EXPECT_LT(loop.stopAndJoin(), kMaxStopSeconds);
}

TEST(TurnWait, IdleServerRunSleepsAndStopsPromptly) {
  const PacedClock clock(1.0);  // no report or heartbeat falls due in the window
  AgentDaemon agent(AgentDaemonConfig{}, clock);
  NetServerConfig serverConfig;
  serverConfig.agentPorts = {agent.port()};
  serverConfig.machine.name = "idle";
  NetServerDaemon server(serverConfig, clock);
  server.connect();
  DaemonThread agentLoop([&](const std::atomic<bool>& stop) { agent.run(stop); });
  DaemonThread serverLoop([&](const std::atomic<bool>& stop) { server.run(stop); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // registration settles
  EXPECT_LT(serverLoop.coreShareOver(kIdleWindowSeconds), kMaxIdleCoreShare);
  EXPECT_LT(serverLoop.stopAndJoin(), kMaxStopSeconds);
  agentLoop.stopAndJoin();
  EXPECT_TRUE(server.registered());
  EXPECT_TRUE(agent.serverKnown("idle"));
}

TEST(TurnWait, RunRetiresASilentServerWithNoSocketTraffic) {
  // Heartbeat deadlines are no simulator event and a silent server sends no
  // bytes, so only the idle bound wakes the agent to retire it.
  const PacedClock clock(1000.0);  // 50 simulated seconds pass in 50 wall ms
  AgentDaemonConfig agentConfig;
  agentConfig.heartbeatTimeout = 50.0;
  AgentDaemon agent(agentConfig, clock);

  auto stub = wire::TcpTransport::connect("127.0.0.1", agent.port());
  wire::RegisterMsg reg;
  reg.serverName = "silent";
  reg.bwInMBps = 100.0;
  reg.bwOutMBps = 100.0;
  reg.ramMB = 1024.0;
  reg.problems = {"*"};
  stub->send(wire::MessageType::kRegister, wire::encode(reg));
  DaemonThread loop([&](const std::atomic<bool>& stop) { agent.run(stop); });

  // The stub reads its acknowledgement, then never sends again.
  bool acked = false;
  TurnWaiter waiter;
  const WallDeadline ackDeadline(5.0);
  while (!acked && !ackDeadline.passed()) {
    waiter.watch(stub);
    waiter.wait(0.01);
    stub->poll([&](const wire::Frame& frame) {
      if (frame.type == wire::MessageType::kRegisterAck) {
        acked = wire::decodeRegisterAck(frame.payload).accepted;
      }
    });
  }
  ASSERT_TRUE(acked);

  // Retirement closes the link, which the stub sees as end of stream.
  const auto t0 = PacedClock::WallClock::now();
  const double budget = agentConfig.heartbeatTimeout / clock.timeScale() + 0.25;
  const WallDeadline retireDeadline(budget);
  while (!stub->closed() && !retireDeadline.passed()) {
    waiter.watch(stub);
    waiter.wait(0.01);
    stub->poll(nullptr);
  }
  const double elapsed =
      std::chrono::duration<double>(PacedClock::WallClock::now() - t0).count();
  EXPECT_TRUE(stub->closed()) << "agent never retired the silent server";
  EXPECT_LT(elapsed, budget);
  loop.stopAndJoin();
  EXPECT_TRUE(agent.serverRetired("silent"));
}

}  // namespace
}  // namespace casched::net
