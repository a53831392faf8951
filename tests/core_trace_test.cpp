// Tests of the ServerTrace - the HTM's per-server analytic simulation - and
// of the Gantt chart extraction (paper figure 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "util/error.hpp"

#include "core/server_trace.hpp"

namespace casched::core {
namespace {

ServerModel bareModel(double bwIn = 10.0, double bwOut = 10.0, double latIn = 0.0,
                      double latOut = 0.0) {
  return ServerModel{"s", bwIn, bwOut, latIn, latOut};
}

// --- reference: the round-based equal-share loop the drain replaced ---
// Each round finds the soonest phase end over every task, integrates every
// task to it and retires finished phases: O(k) per round, O(k^2) per drain.
// It stays here as the oracle the event-driven drain is checked against.
constexpr double kRefEps = 1e-9;

double refPhaseAmount(const ServerModel& m, const TraceTask& task) {
  switch (task.phase) {
    case TracePhase::kLatencyIn: return m.latencyIn;
    case TracePhase::kTransferIn: return task.dims.inMB;
    case TracePhase::kCompute: return task.dims.cpuSeconds;
    case TracePhase::kLatencyOut: return m.latencyOut;
    case TracePhase::kTransferOut: return task.dims.outMB;
    case TracePhase::kDone: return 0.0;
  }
  return 0.0;
}

void refEnterNextPhase(const ServerModel& m, TraceTask& task) {
  while (task.phase != TracePhase::kDone && task.remaining <= kRefEps) {
    task.phase = static_cast<TracePhase>(static_cast<std::uint8_t>(task.phase) + 1);
    task.remaining = task.phase == TracePhase::kDone ? 0.0 : refPhaseAmount(m, task);
  }
}

/// Advances `tasks` from `*t` to `bound` (infinity: to completion), appending
/// completions to `out`.
void referenceDrain(const ServerModel& m, std::vector<TraceTask>& tasks, double* t,
                    double bound, std::vector<PredictedEntry>* out) {
  while (!tasks.empty() && *t < bound) {
    std::size_t in = 0, cpu = 0, outLink = 0;
    for (const TraceTask& task : tasks) {
      in += task.phase == TracePhase::kTransferIn;
      cpu += task.phase == TracePhase::kCompute;
      outLink += task.phase == TracePhase::kTransferOut;
    }
    auto rateOf = [&](TracePhase phase) {
      switch (phase) {
        case TracePhase::kTransferIn: return m.bwInMBps / static_cast<double>(in);
        case TracePhase::kCompute: return 1.0 / static_cast<double>(cpu);
        case TracePhase::kTransferOut: return m.bwOutMBps / static_cast<double>(outLink);
        default: return 1.0;
      }
    };
    double dt = std::numeric_limits<double>::infinity();
    for (const TraceTask& task : tasks) dt = std::min(dt, task.remaining / rateOf(task.phase));
    const bool clipped = *t + dt > bound;
    if (clipped) dt = bound - *t;
    for (TraceTask& task : tasks) {
      task.remaining = std::max(0.0, task.remaining - rateOf(task.phase) * dt);
    }
    *t += dt;
    for (auto it = tasks.begin(); it != tasks.end();) {
      if (it->remaining <= kRefEps) {
        refEnterNextPhase(m, *it);
        if (it->phase == TracePhase::kDone) {
          if (out != nullptr) out->push_back(PredictedEntry{it->taskId, *t});
          it = tasks.erase(it);
          continue;
        }
      }
      ++it;
    }
    if (clipped) break;
  }
  if (*t < bound && bound != std::numeric_limits<double>::infinity()) *t = bound;
}

std::map<std::uint64_t, double> byId(const std::vector<PredictedEntry>& entries) {
  std::map<std::uint64_t, double> out;
  for (const PredictedEntry& e : entries) out[e.taskId] = e.completion;
  return out;
}

/// A seeded random trace: random link speeds, zero or non-zero latencies,
/// 1-300 admissions (zero-amount phases, start delays) with removals mixed in.
ServerTrace randomTrace(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  auto maybe = [&](double p, double scale) { return u(rng) < p ? 0.0 : scale * u(rng); };
  ServerTrace trace(ServerModel{"s", 1.0 + 99.0 * u(rng), 1.0 + 99.0 * u(rng),
                                maybe(0.5, 2.0), maybe(0.5, 2.0)});
  const std::size_t admissions = 1 + rng() % 300;
  double at = 0.0;
  for (std::uint64_t id = 1; id <= admissions; ++id) {
    at += 0.05 * u(rng);
    trace.admit(id, TaskDims{maybe(0.2, 50.0), maybe(0.2, 100.0), maybe(0.2, 20.0)}, at,
                maybe(0.5, 1.0));
    if (trace.activeTasks() > 1 && u(rng) < 0.05) {
      trace.remove(trace.tasks()[rng() % trace.activeTasks()].taskId);
    }
  }
  return trace;
}

TEST(ServerTrace, SingleTaskPhases) {
  ServerTrace trace(bareModel(10.0, 5.0, 0.5, 0.25));
  trace.admit(1, TaskDims{20.0, 10.0, 5.0}, 0.0);
  // 0.5 + 2 + 10 + 0.25 + 1 = 13.75
  EXPECT_NEAR(trace.predictCompletions().at(1), 13.75, 1e-9);
}

TEST(ServerTrace, StartDelayShiftsEverything) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0, 2.5);
  EXPECT_NEAR(trace.predictCompletions().at(1), 12.5, 1e-9);
}

TEST(ServerTrace, EqualShareCompute) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 10.0, 0.0}, 0.0);
  const auto done = trace.predictCompletions();
  EXPECT_NEAR(done.at(1), 20.0, 1e-9);
  EXPECT_NEAR(done.at(2), 20.0, 1e-9);
}

TEST(ServerTrace, LateArrivalMatchesHandComputation) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 10.0, 0.0}, 5.0);  // advances to t=5 first
  const auto done = trace.predictCompletions();
  EXPECT_NEAR(done.at(1), 15.0, 1e-9);
  EXPECT_NEAR(done.at(2), 20.0, 1e-9);
}

TEST(ServerTrace, TransfersShareLinkComputesShareCpuIndependently) {
  // Task 1 computes while task 2 transfers: no interference.
  ServerTrace trace(bareModel(10.0, 10.0));
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);     // pure compute, done at 10
  trace.admit(2, TaskDims{50.0, 0.0, 0.0}, 0.0);     // pure transfer, done at 5
  const auto done = trace.predictCompletions();
  EXPECT_NEAR(done.at(1), 10.0, 1e-9);
  EXPECT_NEAR(done.at(2), 5.0, 1e-9);
}

TEST(ServerTrace, TwoTransfersHalveBandwidth) {
  ServerTrace trace(bareModel(10.0, 10.0));
  trace.admit(1, TaskDims{20.0, 0.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{20.0, 0.0, 0.0}, 0.0);
  const auto done = trace.predictCompletions();
  EXPECT_NEAR(done.at(1), 4.0, 1e-9);
  EXPECT_NEAR(done.at(2), 4.0, 1e-9);
}

TEST(ServerTrace, AdvanceToRetiresFinishedTasks) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.advanceTo(10.0 + 1e-6);
  EXPECT_EQ(trace.activeTasks(), 0u);
  EXPECT_EQ(trace.predictCompletions().count(1), 0u);
}

TEST(ServerTrace, AdvancePartial) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.advanceTo(4.0);
  EXPECT_EQ(trace.activeTasks(), 1u);
  EXPECT_NEAR(trace.predictCompletions().at(1), 10.0, 1e-9);
  ASSERT_EQ(trace.tasks()[0].phase, TracePhase::kCompute);
  EXPECT_NEAR(trace.tasks()[0].remaining, 6.0, 1e-9);
}

TEST(ServerTrace, RemoveTask) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 10.0, 0.0}, 0.0);
  EXPECT_TRUE(trace.remove(1));
  EXPECT_FALSE(trace.remove(1));
  EXPECT_NEAR(trace.predictCompletions().at(2), 10.0, 1e-9);
}

TEST(ServerTrace, ClearDropsEverything) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.clear();
  EXPECT_EQ(trace.activeTasks(), 0u);
}

TEST(ServerTrace, PredictIsNonMutating) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  const auto first = trace.predictCompletions();
  const auto second = trace.predictCompletions();
  EXPECT_EQ(first.size(), second.size());
  EXPECT_NEAR(first.at(1), second.at(1), 1e-12);
  EXPECT_EQ(trace.activeTasks(), 1u);
}

TEST(ServerTrace, CopySemanticsForHypotheticals) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  ServerTrace copy = trace;
  copy.admit(2, TaskDims{0.0, 10.0, 0.0}, 0.0);
  EXPECT_NEAR(copy.predictCompletions().at(1), 20.0, 1e-9);
  EXPECT_NEAR(trace.predictCompletions().at(1), 10.0, 1e-9);  // original untouched
}

TEST(ServerTrace, DuplicateAdmitRejected) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  EXPECT_THROW(trace.admit(1, TaskDims{0.0, 1.0, 0.0}, 1.0), util::Error);
}

TEST(ServerTrace, ZeroEverythingTaskNeverEntersTrace) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 0.0, 0.0}, 3.0);
  EXPECT_EQ(trace.activeTasks(), 0u);
}

TEST(ServerTrace, PaperFigure1Scenario) {
  // Paper fig. 1: two tasks running, a third arrives; shares move
  // 100% -> 50% -> 33.3% and completion dates shift (the perturbation).
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 30.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 30.0, 0.0}, 10.0);
  const auto before = trace.predictCompletions();
  // t in [0,10): T1 alone (10 done). [10,...): share 1/2.
  // T1: 20 left at 1/2 -> done at 50. T2: 30 at 1/2 until T1 done...
  // T1 done at 50; T2 has 30 - 20 = 10 left, alone -> done at 60.
  EXPECT_NEAR(before.at(1), 50.0, 1e-9);
  EXPECT_NEAR(before.at(2), 60.0, 1e-9);

  ServerTrace with = trace;
  with.admit(3, TaskDims{0.0, 30.0, 0.0}, 20.0);
  const auto after = with.predictCompletions();
  // Hand-computed: [0,10) T1 alone; [10,20) T1,T2 at 1/2 (T1 has 15 left at
  // t=20, T2 has 25); [20,...) three-way at 1/3: T1 done at 20+45=65;
  // then T2 (25-15=10 left) and T3 (30-15=15) at 1/2: T2 done at 85;
  // T3 (15-10=5 left) alone: done at 90.
  EXPECT_NEAR(after.at(1), 65.0, 1e-9);
  EXPECT_NEAR(after.at(2), 85.0, 1e-9);
  EXPECT_NEAR(after.at(3), 90.0, 1e-9);
  // Perturbations pi_1 = 15, pi_2 = 25.
  EXPECT_NEAR(after.at(1) - before.at(1), 15.0, 1e-9);
  EXPECT_NEAR(after.at(2) - before.at(2), 25.0, 1e-9);
}

TEST(Gantt, SegmentsCoverExecution) {
  ServerTrace trace(bareModel(10.0, 10.0, 0.0, 0.0));
  trace.admit(1, TaskDims{10.0, 5.0, 10.0}, 0.0);
  const GanttChart chart = trace.simulateGantt();
  ASSERT_FALSE(chart.empty());
  EXPECT_NEAR(chart.horizon, 7.0, 1e-9);  // 1 + 5 + 1
  double total = 0.0;
  for (const auto& seg : chart.segments) {
    EXPECT_LE(seg.start, seg.end);
    EXPECT_GT(seg.share, 0.0);
    EXPECT_LE(seg.share, 1.0);
    total += seg.end - seg.start;
  }
  EXPECT_NEAR(total, 7.0, 1e-9);
}

TEST(Gantt, SharesReflectConcurrency) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 10.0, 0.0}, 0.0);
  const GanttChart chart = trace.simulateGantt();
  for (const auto& seg : chart.segments) {
    EXPECT_NEAR(seg.share, 0.5, 1e-9);  // both compute the whole time
  }
}

TEST(Gantt, AsciiRenderContainsTasksAndLegend) {
  ServerTrace trace(bareModel(10.0, 10.0, 0.1, 0.1));
  trace.admit(7, TaskDims{5.0, 3.0, 5.0}, 0.0);
  const std::string out = renderGanttAscii(trace.simulateGantt());
  EXPECT_NE(out.find("task 7"), std::string::npos);
  EXPECT_NE(out.find("legend"), std::string::npos);
  EXPECT_NE(out.find('='), std::string::npos);
}

TEST(Gantt, EmptyChartRenders) {
  ServerTrace trace(bareModel());
  const std::string out = renderGanttAscii(trace.simulateGantt());
  EXPECT_NE(out.find("empty"), std::string::npos);
}

TEST(Gantt, CsvHasOneRowPerSegment) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 5.0, 0.0}, 0.0);
  const GanttChart chart = trace.simulateGantt();
  const std::string csv = ganttToCsv(chart);
  const auto lines = static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, chart.segments.size() + 1);  // header
}

TEST(ServerTrace, DrainMatchesRoundLoopOracle) {
  // Full drains and bounded advances of ~400 seeded random traces, through
  // the round loop and through the drain, must agree to 1e-12 relative.
  std::mt19937_64 rng(20030422);
  DrainScratch scratch;
  std::vector<TraceTask> work;
  std::vector<PredictedEntry> got, want;
  std::size_t compared = 0;
  double worstRel = 0.0, worstAbs = 0.0;
  auto compare = [&](const char* what) {
    const auto g = byId(got), w = byId(want);
    ASSERT_EQ(g.size(), w.size()) << what;
    for (const auto& [id, when] : w) {
      ASSERT_EQ(g.count(id), 1u) << what << " task " << id;
      const double diff = std::abs(g.at(id) - when);
      const double rel = diff / when;
      worstRel = std::max(worstRel, rel);
      worstAbs = std::max(worstAbs, diff);
      EXPECT_LE(rel, 1e-12) << what << " task " << id;
      ++compared;
    }
  };
  for (int n = 0; n < 400; ++n) {
    const ServerTrace trace = randomTrace(rng);
    const ServerModel& m = trace.model();

    std::vector<TraceTask> ref = trace.tasks();
    double t = trace.now();
    want.clear();
    referenceDrain(m, ref, &t, std::numeric_limits<double>::infinity(), &want);
    work = trace.tasks();
    got.clear();
    trace.completeInto(work, trace.now(), got, scratch);
    compare("full drain");

    const double bound =
        trace.now() + (t - trace.now()) * std::uniform_real_distribution<double>(0.0, 0.5)(rng);
    ref = trace.tasks();
    double tRef = trace.now();
    referenceDrain(m, ref, &tRef, bound, nullptr);
    double tGot = 0.0;
    trace.copyAdvanced(work, &tGot, bound, scratch);
    EXPECT_NEAR(tGot, tRef, 1e-12 * tRef);
    want.clear();
    referenceDrain(m, ref, &tRef, std::numeric_limits<double>::infinity(), &want);
    got.clear();
    trace.completeInto(work, tGot, got, scratch);
    compare("bounded advance");
  }
  std::printf("oracle: %zu completions, largest difference %.3g relative, %.3g s\n",
              compared, worstRel, worstAbs);
  EXPECT_GT(compared, 20000u);
}

TEST(ServerTrace, CompleteOneIsBitIdenticalToFullDrain) {
  std::mt19937_64 rng(7);
  DrainScratch scratch;
  std::vector<TraceTask> work;
  std::vector<PredictedEntry> all;
  for (int n = 0; n < 100; ++n) {
    const ServerTrace trace = randomTrace(rng);
    if (trace.activeTasks() == 0) continue;
    const std::uint64_t id = trace.tasks()[rng() % trace.activeTasks()].taskId;
    work = trace.tasks();
    all.clear();
    trace.completeInto(work, trace.now(), all, scratch);
    work = trace.tasks();
    const double one = trace.completeOne(work, trace.now(), id, scratch);
    EXPECT_EQ(one, byId(all).at(id));
  }
}

/// A trace of `depth` overlapping tasks, all in flight at its clock.
ServerTrace deepTrace(std::size_t depth) {
  std::mt19937_64 rng(depth);
  std::uniform_real_distribution<double> u(0.5, 1.5);
  ServerTrace trace(bareModel(10.0, 10.0, 0.1, 0.1));
  for (std::uint64_t id = 1; id <= depth; ++id) {
    trace.admit(id, TaskDims{5.0 * u(rng), 60.0 * u(rng), 2.0 * u(rng)},
                0.01 * static_cast<double>(id));
  }
  return trace;
}

/// Wall time of one batch of full drains of `trace`, per drain.
double perDrainSeconds(const ServerTrace& trace, DrainScratch& scratch) {
  constexpr int kDrains = 40;
  std::vector<TraceTask> work;
  std::vector<PredictedEntry> out;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kDrains; ++i) {
    work = trace.tasks();
    out.clear();
    trace.completeInto(work, trace.now(), out, scratch);
  }
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
  return took.count() / kDrains;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
constexpr bool kSanitized = __has_feature(address_sanitizer) || __has_feature(thread_sanitizer);
#else
constexpr bool kSanitized = false;
#endif

TEST(ServerTrace, DrainCostScalesNearLinearlyInDepth) {
  // Doubling the in-flight depth must cost at most 3x per drain (fastest of
  // five interleaved batches each); a drain that revisits every task at
  // every phase end costs about 4x.
  if (kSanitized) {
    // Instrumented memory moves make the short slot shifts of a queue insert
    // dominate, so the ratio measures the sanitizer, not the drain.
    GTEST_SKIP() << "timing ratio is meaningless in a sanitizer build";
  }
  const ServerTrace at256 = deepTrace(256), at512 = deepTrace(512);
  ASSERT_EQ(at512.activeTasks(), 512u);
  DrainScratch scratch;
  perDrainSeconds(at512, scratch);  // warm-up
  double best256 = std::numeric_limits<double>::infinity(), best512 = best256;
  for (int rep = 0; rep < 5; ++rep) {
    best256 = std::min(best256, perDrainSeconds(at256, scratch));
    best512 = std::min(best512, perDrainSeconds(at512, scratch));
  }
  std::printf("drain: %.3g us at depth 256, %.3g us at depth 512 (x%.2f)\n",
              best256 * 1e6, best512 * 1e6, best512 / best256);
  EXPECT_LE(best512, 3.0 * best256);
}

TEST(ServerTrace, PhaseNames) {
  EXPECT_EQ(tracePhaseName(TracePhase::kCompute), "compute");
  EXPECT_EQ(tracePhaseName(TracePhase::kTransferIn), "transfer-in");
  EXPECT_EQ(tracePhaseName(TracePhase::kDone), "done");
}

}  // namespace
}  // namespace casched::core
