// Tests of the middleware: agent registration, NetSolve's load-correction
// mechanisms, scheduling flow, completion/failure notifications, fault
// tolerance, server collapse handling and small end-to-end runs, plus the
// server node's output order against a recording sink.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"

#include "cas/system.hpp"
#include "platform/testbed.hpp"
#include "workload/metatask.hpp"

namespace casched::cas {
namespace {

workload::Metatask tinyMetatask(std::size_t n, double gap,
                                const workload::TaskType& type) {
  workload::Metatask mt;
  mt.name = "tiny";
  for (std::size_t i = 0; i < n; ++i) {
    mt.tasks.push_back({i, gap * static_cast<double>(i + 1), type});
  }
  return mt;
}

SystemConfig quietConfig() {
  SystemConfig cfg;
  cfg.controlLatency = 0.0;  // simpler arithmetic in tests
  return cfg;
}

TEST(System, SingleTaskCompletesWithExpectedTiming) {
  platform::Testbed bed = platform::buildUniform(1, 10.0, 0.0);
  const auto type = workload::makeSyntheticType("t", 0.0, 10.0, 0.0, 0.0);
  const auto mt = tinyMetatask(1, 5.0, type);
  const auto result = runExperimentSystem(bed, mt, "mct", quietConfig());
  ASSERT_EQ(result.tasks.size(), 1u);
  const auto& t = result.tasks[0];
  EXPECT_EQ(t.status, metrics::TaskStatus::kCompleted);
  EXPECT_DOUBLE_EQ(t.arrival, 5.0);
  EXPECT_NEAR(t.completion, 15.0, 1e-9);
  EXPECT_NEAR(t.unloadedDuration, 10.0, 1e-9);
  EXPECT_EQ(t.attempts, 1);
}

TEST(System, ControlLatencyDelaysEverything) {
  platform::Testbed bed = platform::buildUniform(1, 10.0, 0.0);
  const auto type = workload::makeSyntheticType("t", 0.0, 10.0, 0.0, 0.0);
  const auto mt = tinyMetatask(1, 5.0, type);
  SystemConfig cfg = quietConfig();
  cfg.controlLatency = 0.5;  // request + reply + submit = 1.5s after arrival
  const auto result = runExperimentSystem(bed, mt, "mct", cfg);
  EXPECT_NEAR(result.tasks[0].completion, 5.0 + 1.5 + 10.0, 1e-9);
}

TEST(System, HtmPredictionMatchesRealityWithoutNoise) {
  platform::Testbed bed = platform::buildUniform(2, 10.0, 0.01);
  const auto type = workload::makeSyntheticType("t", 2.0, 20.0, 1.0, 0.0);
  const auto mt = tinyMetatask(12, 7.0, type);
  const auto result = runExperimentSystem(bed, mt, "msf", quietConfig());
  EXPECT_EQ(result.completedCount(), 12u);
  for (const auto& t : result.tasks) {
    // The recorded per-task value is the commit-time estimate: tasks mapped
    // later can only delay it, never speed it up.
    ASSERT_GT(t.htmPredictedCompletion, 0.0);
    EXPECT_LE(t.htmPredictedCompletion, t.completion + 1e-6) << "task " << t.index;
  }
  // The HTM's *refreshed* predictions (updated at every later commit) must
  // match reality exactly when noise is off.
  EXPECT_LT(result.htmMeanRelErrorPercent, 1e-3);
}

TEST(System, DeterministicAcrossRuns) {
  platform::Testbed bed = platform::buildSet2();
  workload::MetataskConfig mc;
  mc.count = 60;
  mc.meanInterarrival = 10.0;
  mc.types = workload::wasteCpuFamily();
  mc.seed = 77;
  const auto mt = workload::generateMetatask(mc);
  SystemConfig cfg;
  cfg.cpuNoise = {0.1, 5.0};
  cfg.noiseSeed = 5;
  const auto a = runExperimentSystem(bed, mt, "msf", cfg);
  const auto b = runExperimentSystem(bed, mt, "msf", cfg);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tasks[i].completion, b.tasks[i].completion);
    EXPECT_EQ(a.tasks[i].server, b.tasks[i].server);
  }
  EXPECT_EQ(a.simulatedEvents, b.simulatedEvents);
}

TEST(System, NoiseSeedChangesOutcomes) {
  platform::Testbed bed = platform::buildSet2();
  workload::MetataskConfig mc;
  mc.count = 60;
  mc.meanInterarrival = 10.0;
  mc.types = workload::wasteCpuFamily();
  const auto mt = workload::generateMetatask(mc);
  SystemConfig cfg;
  cfg.cpuNoise = {0.1, 5.0};
  cfg.noiseSeed = 5;
  const auto a = runExperimentSystem(bed, mt, "msf", cfg);
  cfg.noiseSeed = 6;
  const auto b = runExperimentSystem(bed, mt, "msf", cfg);
  bool anyDiff = false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    anyDiff |= a.tasks[i].completion != b.tasks[i].completion;
  }
  EXPECT_TRUE(anyDiff);
}

TEST(System, LoadCorrectionCountsInFlightAssignments) {
  platform::Testbed bed = platform::buildUniform(1, 10.0, 0.0);
  const auto type = workload::makeSyntheticType("t", 0.0, 100.0, 0.0, 0.0);
  const auto mt = tinyMetatask(3, 1.0, type);
  GridSystem system(bed, mt, "mct", quietConfig());
  // Before the first load report (30s), the agent's estimate comes purely
  // from its own correction mechanism: one per in-flight assignment.
  system.simulator().scheduleAt(10.0, [&] {
    EXPECT_NEAR(system.agent().loadEstimate("server-0"), 3.0, 1e-9);
  });
  system.run();
}

TEST(System, CompletionNoticeLowersEstimate) {
  platform::Testbed bed = platform::buildUniform(1, 10.0, 0.0);
  const auto type = workload::makeSyntheticType("t", 0.0, 4.0, 0.0, 0.0);
  const auto mt = tinyMetatask(2, 1.0, type);
  GridSystem system(bed, mt, "mct", quietConfig());
  system.run();
  // Both tasks completed before the first load report; the correction
  // mechanism must have retired both in-flight entries.
  EXPECT_NEAR(system.agent().loadEstimate("server-0"), 0.0, 1e-9);
}

TEST(System, CollapseWithoutFaultToleranceLosesTasks) {
  platform::Testbed bed = platform::buildUniform(1, 100.0, 0.0);
  bed.servers[0].ramMB = 100.0;
  bed.servers[0].swapMB = 0.0;
  bed.servers[0].recoverySeconds = 50.0;
  const auto type = workload::makeSyntheticType("hog", 0.0, 30.0, 0.0, 60.0);
  const auto mt = tinyMetatask(3, 0.5, type);  // third submission collapses
  SystemConfig cfg = quietConfig();
  cfg.faultTolerance = false;
  const auto result = runExperimentSystem(bed, mt, "mct", cfg);
  EXPECT_EQ(result.completedCount(), 0u);
  EXPECT_EQ(result.lostCount(), 3u);
  EXPECT_EQ(result.servers.at("server-0").collapses, 1u);
}

TEST(System, ServerRecoversAndAcceptsNewTasks) {
  platform::Testbed bed = platform::buildUniform(1, 100.0, 0.0);
  bed.servers[0].ramMB = 100.0;
  bed.servers[0].swapMB = 0.0;
  bed.servers[0].recoverySeconds = 20.0;
  // Two overlapping hogs collapse the lone server; a third, later task finds
  // it recovered and completes.
  const auto hog = workload::makeSyntheticType("hog", 0.0, 30.0, 0.0, 60.0);
  const auto small = workload::makeSyntheticType("small", 0.0, 5.0, 0.0, 1.0);
  workload::Metatask mt;
  mt.name = "recovery";
  mt.tasks.push_back({0, 0.5, hog});
  mt.tasks.push_back({1, 1.0, hog});
  mt.tasks.push_back({2, 100.0, small});
  SystemConfig cfg = quietConfig();
  cfg.faultTolerance = true;
  cfg.maxRetries = 0;  // hogs are lost outright; no retry ping-pong
  const auto result = runExperimentSystem(bed, mt, "mct", cfg);
  EXPECT_EQ(result.tasks[0].status, metrics::TaskStatus::kLost);
  EXPECT_EQ(result.tasks[1].status, metrics::TaskStatus::kLost);
  EXPECT_EQ(result.tasks[2].status, metrics::TaskStatus::kCompleted);
  EXPECT_NEAR(result.tasks[2].completion, 105.0, 1e-9);
  EXPECT_EQ(result.servers.at("server-0").collapses, 1u);
}

TEST(System, FaultToleranceSpreadsToOtherServers) {
  platform::Testbed bed = platform::buildUniform(2, 100.0, 0.0);
  bed.servers[0].ramMB = 100.0;  // fragile
  bed.servers[0].swapMB = 0.0;
  bed.servers[1].ramMB = 1e6;    // sturdy
  const auto type = workload::makeSyntheticType("hog", 0.0, 30.0, 0.0, 80.0);
  const auto mt = tinyMetatask(4, 0.1, type);
  SystemConfig cfg = quietConfig();
  cfg.faultTolerance = true;
  const auto result = runExperimentSystem(bed, mt, "mct", cfg);
  EXPECT_EQ(result.completedCount(), 4u);
  // The sturdy server must have picked up re-submissions.
  EXPECT_GE(result.servers.at("server-1").tasksCompleted, 2u);
}

TEST(System, ServerSummariesAccumulate) {
  platform::Testbed bed = platform::buildUniform(2, 10.0, 0.0);
  const auto type = workload::makeSyntheticType("t", 1.0, 5.0, 1.0, 10.0);
  const auto mt = tinyMetatask(6, 2.0, type);
  const auto result = runExperimentSystem(bed, mt, "round-robin", quietConfig());
  std::uint64_t total = 0;
  for (const auto& [name, s] : result.servers) {
    total += s.tasksCompleted;
    EXPECT_GT(s.busySeconds, 0.0);
    EXPECT_GT(s.peakResidentMB, 0.0);
  }
  EXPECT_EQ(total, 6u);
}

TEST(System, AllSchedulersCompleteASmallRun) {
  platform::Testbed bed = platform::buildSet2();
  workload::MetataskConfig mc;
  mc.count = 30;
  mc.meanInterarrival = 15.0;
  mc.types = workload::wasteCpuFamily();
  const auto mt = workload::generateMetatask(mc);
  for (const char* nameC :
       {"mct", "hmct", "mp", "msf", "mni", "met", "random", "round-robin",
        "ma-msf", "ma-mct"}) {
    const std::string name = nameC;
    const auto result = runExperimentSystem(bed, mt, name, SystemConfig{});
    EXPECT_EQ(result.completedCount(), 30u) << name;
    EXPECT_EQ(result.heuristic, name);
  }
}

TEST(System, RejectsEmptyInputs) {
  const auto build = [](const platform::Testbed& bed, const workload::Metatask& mt) {
    return std::make_unique<GridSystem>(bed, mt, "mct", SystemConfig{});
  };
  platform::Testbed bed = platform::buildUniform(1);
  workload::Metatask empty;
  EXPECT_THROW(build(bed, empty), util::Error);
  platform::Testbed noServers;
  const auto type = workload::makeSyntheticType("t", 0.0, 1.0, 0.0, 0.0);
  EXPECT_THROW(build(noServers, tinyMetatask(1, 1.0, type)), util::Error);
}

TEST(System, MemoryAwareAvoidsCollapseWhereMsfCollapses) {
  // Future-work extension (paper section 7): with memory admission control
  // the fragile server is never overcommitted.
  platform::Testbed bed = platform::buildUniform(2, 100.0, 0.0);
  bed.servers[0].ramMB = 150.0;
  bed.servers[0].swapMB = 0.0;
  bed.servers[1].ramMB = 1e6;
  const auto type = workload::makeSyntheticType("hog", 0.0, 50.0, 0.0, 60.0);
  const auto mt = tinyMetatask(8, 0.5, type);
  SystemConfig cfg = quietConfig();
  const auto guarded = runExperimentSystem(bed, mt, "ma-hmct", cfg);
  EXPECT_EQ(guarded.servers.at("server-0").collapses, 0u);
  EXPECT_EQ(guarded.completedCount(), 8u);
}

/// Records a server node's outputs in order.
struct RecordingSink final : ServerSink {
  std::vector<std::string> log;
  void completed(const std::string&, std::uint64_t taskId, simcore::SimTime,
                 double) override {
    log.push_back("completed " + std::to_string(taskId));
  }
  void failed(const std::string&, std::uint64_t taskId,
              std::string_view reason) override {
    log.push_back("failed " + std::to_string(taskId) + " (" + std::string(reason) + ")");
  }
  void loadReport(const std::string&, double, simcore::SimTime) override {
    log.push_back("report");
  }
  void down(const std::string&) override { log.push_back("down"); }
  void up(const std::string&) override { log.push_back("up"); }
};

psched::MachineSpec smallMachine() {
  psched::MachineSpec spec;
  spec.name = "node";
  spec.latencyIn = 0.0;
  spec.latencyOut = 0.0;
  spec.ramMB = 100.0;
  spec.swapMB = 0.0;
  spec.recoverySeconds = 50.0;
  return spec;
}

psched::ExecRequest cpuTask(std::uint64_t taskId, double cpuSeconds, double memMB) {
  return {taskId, 0.0, cpuSeconds, 0.0, memMB};
}

TEST(ServerNode, SubmitToADownMachineFailsExactlyOnce) {
  simcore::Simulator sim;
  RecordingSink sink;
  ServerNode node(sim, smallMachine(), {}, sink);
  ASSERT_TRUE(node.crash(100.0));
  node.submitTask(7, cpuTask(7, 10.0, 1.0));
  EXPECT_EQ(sink.log, (std::vector<std::string>{"down", "failed 7 (server down)"}));
}

TEST(ServerNode, CollapsingAdmissionReportsDownThenVictimsThenTheSubmitter) {
  simcore::Simulator sim;
  RecordingSink sink;
  ServerNode node(sim, smallMachine(), {}, sink);
  node.submitTask(1, cpuTask(1, 10.0, 40.0));
  node.submitTask(2, cpuTask(2, 10.0, 40.0));
  EXPECT_TRUE(sink.log.empty());
  node.submitTask(3, cpuTask(3, 10.0, 40.0));  // 120 MB > 100 MB RAM, no swap
  EXPECT_EQ(sink.log, (std::vector<std::string>{"down", "failed 1 (server collapsed)",
                                                "failed 2 (server collapsed)",
                                                "failed 3 (submission rejected)"}));
  sim.run();
  EXPECT_EQ(sink.log.back(), "up");
  EXPECT_DOUBLE_EQ(sim.now(), 50.0);
}

TEST(ServerNode, QuiesceStopsReportsAndNoiseButInFlightTasksComplete) {
  simcore::Simulator sim;
  RecordingSink sink;
  ServerNodeConfig config;
  config.reportPeriod = 10.0;
  config.cpuNoise.amplitude = 0.2;
  config.linkNoise.amplitude = 0.2;
  config.noiseSeed = 5;
  ServerNode node(sim, smallMachine(), config, sink);
  node.start();
  node.submitTask(1, cpuTask(1, 100.0, 1.0));
  sim.run(35.0);
  EXPECT_EQ(sink.log, (std::vector<std::string>{"report", "report", "report"}));
  EXPECT_NE(node.cpuNoiseFactor(), 1.0);
  EXPECT_NE(node.linkNoiseFactor(), 1.0);

  node.quiesce();
  EXPECT_EQ(node.cpuNoiseFactor(), 1.0);
  EXPECT_EQ(node.linkNoiseFactor(), 1.0);
  sim.run();  // drains: no report or noise event is left to reschedule itself
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sink.log.back(), "completed 1");
  EXPECT_EQ(sink.log.size(), 4u);
  EXPECT_EQ(node.cpuNoiseFactor(), 1.0);
}

}  // namespace
}  // namespace casched::cas
