// Tests of the Historical Trace Manager: previews, perturbations, commits,
// the paper's section-2.3 worked example, and the synchronization policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "util/error.hpp"

#include "core/htm.hpp"
#include "core/htm_snapshot.hpp"

namespace casched::core {
namespace {

ServerModel model(const std::string& name) {
  return ServerModel{name, 10.0, 10.0, 0.0, 0.0};
}

TaskDims compute(double seconds) { return TaskDims{0.0, seconds, 0.0}; }

TEST(Htm, RegisterAndQueryServers) {
  HistoricalTraceManager htm;
  htm.addServer(model("a"));
  htm.addServer(model("b"));
  EXPECT_TRUE(htm.hasServer("a"));
  EXPECT_FALSE(htm.hasServer("c"));
  EXPECT_EQ(htm.serverNames().size(), 2u);
  EXPECT_THROW(htm.addServer(model("a")), util::Error);
}

TEST(Htm, PreviewOnIdleServer) {
  HistoricalTraceManager htm;
  htm.addServer(model("a"));
  const Preview p = htm.preview("a", compute(10.0), 5.0);
  EXPECT_NEAR(p.completionNew, 15.0, 1e-9);
  EXPECT_DOUBLE_EQ(p.sumPerturbation, 0.0);
  EXPECT_EQ(p.perturbedCount, 0u);
  EXPECT_TRUE(p.perTask.empty());
}

TEST(Htm, PreviewDoesNotMutate) {
  HistoricalTraceManager htm;
  htm.addServer(model("a"));
  htm.preview("a", compute(10.0), 0.0);
  htm.preview("a", compute(10.0), 0.0);
  EXPECT_EQ(htm.activeTasks("a"), 0u);
}

TEST(Htm, CommitThenPerturbationOnPreview) {
  HistoricalTraceManager htm;
  htm.addServer(model("a"));
  htm.commit("a", 1, compute(10.0), 0.0);
  const Preview p = htm.preview("a", compute(10.0), 0.0);
  // Existing task slides 10 -> 20 when sharing with the newcomer.
  EXPECT_NEAR(p.sumPerturbation, 10.0, 1e-9);
  EXPECT_EQ(p.perturbedCount, 1u);
  ASSERT_EQ(p.perTask.size(), 1u);
  EXPECT_EQ(p.perTask[0].taskId, 1u);
  EXPECT_NEAR(p.perTask[0].delta, 10.0, 1e-9);
  EXPECT_NEAR(p.completionNew, 20.0, 1e-9);
}

TEST(Htm, CommitAfterFullPreviewIsBitIdenticalToFreshDrain) {
  // Two HTMs see the same mappings and notices. `warm` previews each mapping
  // in full first, so its commit takes the preview's drain whenever the key
  // still matches; `cold` never previews, so every commit drains afresh.
  // Stale previews (other dims, a later clock, a notice in between) mix in
  // to exercise the fall-back. Task ids arrive out of order, so a committed
  // id is not always the largest. Every prediction must agree bit for bit.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::uint64_t> ids(300);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 1000 + i;
  std::shuffle(ids.begin(), ids.end(), rng);
  HistoricalTraceManager warm, cold;
  const ServerModel m{"a", 7.0, 13.0, 0.3, 0.2};
  warm.addServer(m);
  cold.addServer(m);
  double now = 0.0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint64_t id = ids[i];
    now += 0.5 * u(rng);
    const TaskDims dims{20.0 * u(rng), 50.0 * u(rng), 10.0 * u(rng)};
    const double delay = u(rng) < 0.5 ? 0.0 : 0.1 * u(rng);
    const double roll = u(rng);
    const Preview p = warm.preview("a", roll < 0.1 ? compute(1.0) : dims,
                                   roll < 0.2 ? now - 0.1 : now, delay);
    if (roll > 0.9 && i >= 10) {
      warm.onTaskCompleted("a", ids[i - 10], now);
      cold.onTaskCompleted("a", ids[i - 10], now);
    }
    const double reused = warm.commit("a", id, dims, now, delay);
    EXPECT_EQ(reused, cold.commit("a", id, dims, now, delay)) << "task " << id;
    if (roll >= 0.2 && roll <= 0.9) {
      EXPECT_EQ(reused, p.completionNew) << "task " << id;
    }
  }
  // The error statistics sum every task's committed prediction.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    warm.onTaskCompleted("a", ids[i], now + static_cast<double>(i));
    cold.onTaskCompleted("a", ids[i], now + static_cast<double>(i));
  }
  EXPECT_GT(warm.stats().errorSamples, 200u);
  EXPECT_EQ(warm.stats().errorSamples, cold.stats().errorSamples);
  EXPECT_EQ(warm.stats().absErrorSum, cold.stats().absErrorSum);
  EXPECT_EQ(warm.stats().relErrorSum, cold.stats().relErrorSum);
}

TEST(Htm, PaperSection23UsefulnessExample) {
  // Two identical servers; T1 and T2 started at t=0 with durations 100 and
  // 200. At t=80 a task T3 of duration 100 arrives: without the HTM the
  // servers look equally loaded; the HTM knows the remaining durations are
  // 20 vs 120, so T3 finishes sooner on server 1.
  HistoricalTraceManager htm;
  htm.addServer(model("s1"));
  htm.addServer(model("s2"));
  htm.commit("s1", 1, compute(100.0), 0.0);
  htm.commit("s2", 2, compute(200.0), 0.0);

  const Preview on1 = htm.preview("s1", compute(100.0), 80.0);
  const Preview on2 = htm.preview("s2", compute(100.0), 80.0);
  // s1: T1 has 20 left -> share until t=120 (T1 done, 20 of T3 served);
  // T3 finishes its remaining 80 at t=200.
  EXPECT_NEAR(on1.completionNew, 200.0, 1e-9);
  // s2: T2 has 120 left; T3 (100) at rate 1/2 finishes at 80+200=280.
  EXPECT_NEAR(on2.completionNew, 280.0, 1e-9);
  EXPECT_LT(on1.completionNew, on2.completionNew);
}

TEST(Htm, CommitReturnsPredictionAndTracks) {
  HistoricalTraceManager htm;
  htm.addServer(model("a"));
  const double sigma = htm.commit("a", 1, compute(10.0), 0.0);
  EXPECT_NEAR(sigma, 10.0, 1e-9);
  EXPECT_EQ(htm.activeTasks("a"), 1u);
  EXPECT_EQ(htm.stats().commits, 1u);
}

TEST(Htm, StartDelayModelsSubmissionPath) {
  HistoricalTraceManager htm;
  htm.addServer(model("a"));
  const Preview p = htm.preview("a", compute(10.0), 0.0, 2.0);
  EXPECT_NEAR(p.completionNew, 12.0, 1e-9);
}

TEST(Htm, CompletionNoticeDropsTask) {
  HistoricalTraceManager htm(SyncPolicy::kDropOnNotice);
  htm.addServer(model("a"));
  htm.commit("a", 1, compute(100.0), 0.0);
  htm.onTaskCompleted("a", 1, 50.0);  // finished much earlier than simulated
  EXPECT_EQ(htm.activeTasks("a"), 0u);
  EXPECT_EQ(htm.stats().completionNotices, 1u);
  EXPECT_EQ(htm.stats().errorSamples, 1u);
}

TEST(Htm, PredictOnlyIgnoresCompletionNotices) {
  HistoricalTraceManager htm(SyncPolicy::kPredictOnly);
  htm.addServer(model("a"));
  htm.commit("a", 1, compute(100.0), 0.0);
  htm.onTaskCompleted("a", 1, 50.0);
  EXPECT_EQ(htm.activeTasks("a"), 1u);  // still believed running
}

TEST(Htm, FailureNoticeAlwaysRemoves) {
  HistoricalTraceManager htm(SyncPolicy::kPredictOnly);
  htm.addServer(model("a"));
  htm.commit("a", 1, compute(100.0), 0.0);
  htm.onTaskFailed("a", 1, 10.0);
  EXPECT_EQ(htm.activeTasks("a"), 0u);
  EXPECT_EQ(htm.stats().failureNotices, 1u);
}

TEST(Htm, CollapseNoticeClearsServer) {
  HistoricalTraceManager htm;
  htm.addServer(model("a"));
  htm.commit("a", 1, compute(100.0), 0.0);
  htm.commit("a", 2, compute(100.0), 0.0);
  htm.onServerCollapsed("a", 5.0);
  EXPECT_EQ(htm.activeTasks("a"), 0u);
}

TEST(Htm, RescaleLearnsSlowServer) {
  HistoricalTraceManager htm(SyncPolicy::kRescale);
  htm.addServer(model("a"));
  // The server consistently takes twice the predicted time.
  double t = 0.0;
  for (int i = 0; i < 30; ++i) {
    const double predicted = htm.commit("a", static_cast<std::uint64_t>(i),
                                        compute(10.0), t);
    const double actual = t + 2.0 * (predicted - t);
    htm.onTaskCompleted("a", static_cast<std::uint64_t>(i), actual);
    t = actual + 1.0;
  }
  EXPECT_GT(htm.speedCorrection("a"), 1.5);
  // New admissions now budget roughly twice the compute.
  const Preview p = htm.preview("a", compute(10.0), t);
  EXPECT_GT(p.completionNew - t, 15.0);
}

TEST(Htm, ErrorStatsAccumulateRelativeError) {
  HistoricalTraceManager htm;
  htm.addServer(model("a"));
  htm.commit("a", 1, compute(100.0), 0.0);  // predicted 100
  htm.onTaskCompleted("a", 1, 103.0);       // 3% late
  EXPECT_NEAR(htm.stats().meanRelErrorPercent(), 100.0 * 3.0 / 103.0, 1e-6);
  EXPECT_NEAR(htm.stats().meanAbsError(), 3.0, 1e-9);
}

TEST(Htm, CommitRefreshesNeighbourPredictions) {
  // Table 1 semantics: a later mapping perturbs earlier tasks; the recorded
  // prediction must follow, otherwise accuracy stats would blame the HTM for
  // perturbations it knew about.
  HistoricalTraceManager htm;
  htm.addServer(model("a"));
  htm.commit("a", 1, compute(100.0), 0.0);   // alone: predicted 100
  htm.commit("a", 2, compute(100.0), 0.0);   // both predicted 200 now
  htm.onTaskCompleted("a", 1, 200.0);        // exactly as re-predicted
  EXPECT_NEAR(htm.stats().meanAbsError(), 0.0, 1e-6);
}

TEST(Htm, GanttExposesCommittedTrace) {
  HistoricalTraceManager htm;
  htm.addServer(model("a"));
  htm.commit("a", 1, compute(10.0), 0.0);
  const GanttChart chart = htm.gantt("a", 0.0);
  EXPECT_FALSE(chart.empty());
  EXPECT_EQ(chart.serverName, "a");
}

TEST(Htm, UnknownServerThrows) {
  HistoricalTraceManager htm;
  EXPECT_THROW(htm.preview("nope", compute(1.0), 0.0), util::Error);
  EXPECT_THROW(htm.commit("nope", 1, compute(1.0), 0.0), util::Error);
}

TEST(Htm, SyncPolicyParsing) {
  EXPECT_EQ(parseSyncPolicy("drop-on-notice"), SyncPolicy::kDropOnNotice);
  EXPECT_EQ(parseSyncPolicy("rescale"), SyncPolicy::kRescale);
  EXPECT_EQ(parseSyncPolicy("predict-only"), SyncPolicy::kPredictOnly);
  EXPECT_THROW(parseSyncPolicy("bogus"), util::ConfigError);
  EXPECT_EQ(syncPolicyName(SyncPolicy::kRescale), "rescale");
}

TEST(Htm, PerturbationNeverNegative) {
  // Adding a task can only delay or leave others untouched (equal-share is
  // monotone): every pi_j >= 0.
  HistoricalTraceManager htm;
  htm.addServer(ServerModel{"a", 10.0, 10.0, 0.05, 0.05});
  htm.commit("a", 1, TaskDims{5.0, 30.0, 2.0}, 0.0);
  htm.commit("a", 2, TaskDims{1.0, 60.0, 1.0}, 3.0);
  htm.commit("a", 3, TaskDims{0.5, 10.0, 0.5}, 7.0);
  const Preview p = htm.preview("a", TaskDims{2.0, 25.0, 2.0}, 9.0, 0.5);
  for (const Perturbation& pi : p.perTask) {
    EXPECT_GE(pi.delta, -1e-9) << "task " << pi.taskId;
  }
  EXPECT_GE(p.sumPerturbation, -1e-9);
}

/// A mid-run HTM with learned corrections, committed work and accumulated
/// accuracy statistics, for the snapshot round-trip tests.
HistoricalTraceManager busyHtm() {
  HistoricalTraceManager htm(SyncPolicy::kRescale);
  htm.addServer(ServerModel{"a", 10.0, 10.0, 0.05, 0.05});
  htm.addServer(ServerModel{"b", 25.0, 12.5, 0.01, 0.01});
  htm.commit("a", 1, TaskDims{5.0, 30.0, 2.0}, 0.0);
  htm.commit("a", 2, TaskDims{1.0, 60.0, 1.0}, 3.0, 0.25);
  htm.commit("b", 3, TaskDims{0.5, 10.0, 0.5}, 4.0);
  htm.onTaskCompleted("b", 3, 18.0);  // learns a speed correction (kRescale)
  htm.commit("b", 4, TaskDims{2.0, 45.0, 1.0}, 19.0);
  htm.preview("a", TaskDims{1.0, 20.0, 1.0}, 20.0);
  return htm;
}

TEST(HtmSnapshot, RoundTripPreservesPreviewsAndStats) {
  HistoricalTraceManager original = busyHtm();

  HistoricalTraceManager restored(SyncPolicy::kDropOnNotice);  // policy overwritten
  restored.restore(decodeHtmSnapshot(encodeHtmSnapshot(original.snapshot())));

  EXPECT_EQ(restored.policy(), original.policy());
  EXPECT_EQ(restored.serverNames(), original.serverNames());
  for (const std::string& server : original.serverNames()) {
    EXPECT_DOUBLE_EQ(restored.speedCorrection(server), original.speedCorrection(server))
        << server;
    EXPECT_EQ(restored.activeTasks(server), original.activeTasks(server)) << server;
    // The acceptance bar: identical previews after restore, bit for bit.
    const Preview a = original.preview(server, TaskDims{2.0, 25.0, 2.0}, 21.0, 0.5);
    const Preview b = restored.preview(server, TaskDims{2.0, 25.0, 2.0}, 21.0, 0.5);
    EXPECT_EQ(a.completionNew, b.completionNew) << server;
    EXPECT_EQ(a.sumPerturbation, b.sumPerturbation) << server;
    EXPECT_EQ(a.perturbedCount, b.perturbedCount) << server;
    ASSERT_EQ(a.perTask.size(), b.perTask.size()) << server;
    for (std::size_t i = 0; i < a.perTask.size(); ++i) {
      EXPECT_EQ(a.perTask[i].taskId, b.perTask[i].taskId);
      EXPECT_EQ(a.perTask[i].delta, b.perTask[i].delta);
    }
  }

  // Identical HtmStats (previews above ran in lockstep on both sides).
  const HtmStats& sa = original.stats();
  const HtmStats& sb = restored.stats();
  EXPECT_EQ(sa.previews, sb.previews);
  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.completionNotices, sb.completionNotices);
  EXPECT_EQ(sa.failureNotices, sb.failureNotices);
  EXPECT_EQ(sa.absErrorSum, sb.absErrorSum);
  EXPECT_EQ(sa.relErrorSum, sb.relErrorSum);
  EXPECT_EQ(sa.errorSamples, sb.errorSamples);
}

TEST(HtmSnapshot, RestoredTraceEvolvesIdentically) {
  HistoricalTraceManager original = busyHtm();
  HistoricalTraceManager restored;
  restored.restore(original.snapshot());

  // Both digest the same future notices and stay in lockstep.
  original.onTaskCompleted("a", 1, 40.0);
  restored.onTaskCompleted("a", 1, 40.0);
  original.onTaskFailed("a", 2, 41.0);
  restored.onTaskFailed("a", 2, 41.0);
  EXPECT_EQ(original.predictedCompletions("a", 42.0),
            restored.predictedCompletions("a", 42.0));
  EXPECT_EQ(original.predictedCompletions("b", 42.0),
            restored.predictedCompletions("b", 42.0));
}

TEST(HtmSnapshot, RestoreServerAdoptsOneRow) {
  const HtmSnapshot snap = busyHtm().snapshot();
  HistoricalTraceManager fresh;
  for (const HtmServerSnapshot& row : snap.servers) {
    if (row.model.name == "b") fresh.restoreServer(row);
  }
  EXPECT_FALSE(fresh.hasServer("a"));
  ASSERT_TRUE(fresh.hasServer("b"));
  EXPECT_EQ(fresh.activeTasks("b"), 1u);  // task 4 still in the trace
}

TEST(HtmSnapshot, DecodeRejectsCorruptInput) {
  std::vector<std::uint8_t> bytes = encodeHtmSnapshot(busyHtm().snapshot());
  EXPECT_THROW(decodeHtmSnapshot(bytes.data(), 3), util::DecodeError);  // truncated
  std::vector<std::uint8_t> badMagic = bytes;
  badMagic[0] = 'X';
  EXPECT_THROW(decodeHtmSnapshot(badMagic), util::DecodeError);
  std::vector<std::uint8_t> badVersion = bytes;
  badVersion[4] = 0xFF;  // version word follows the 4-byte magic
  EXPECT_THROW(decodeHtmSnapshot(badVersion), util::DecodeError);
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(decodeHtmSnapshot(trailing), util::DecodeError);

  // Hostile element counts must fail as DecodeError when the bytes run dry,
  // not as a giant-allocation bad_alloc. The server count sits right after
  // magic + version + policy + stats (4 + 4 + 4 + 4*8 + 3*8 = 68 bytes).
  std::vector<std::uint8_t> hugeCount = bytes;
  ASSERT_GT(hugeCount.size(), 72u);
  for (std::size_t i = 68; i < 72; ++i) hugeCount[i] = 0xFF;
  EXPECT_THROW(decodeHtmSnapshot(hugeCount), util::DecodeError);
}

TEST(HtmSnapshot, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "htm_snapshot_test.htmsnap";
  std::remove(path.c_str());
  EXPECT_FALSE(loadHtmSnapshotFile(path).has_value());

  const HtmSnapshot snap = busyHtm().snapshot();
  saveHtmSnapshotFile(path, snap);
  const auto loaded = loadHtmSnapshotFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(encodeHtmSnapshot(*loaded), encodeHtmSnapshot(snap));
  std::remove(path.c_str());
}

TEST(HtmSnapshot, JsonCarriesPerServerSummary) {
  const std::string json = htmSnapshotJson(busyHtm().snapshot());
  EXPECT_NE(json.find("\"policy\": \"rescale\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"a\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"b\""), std::string::npos) << json;
}

}  // namespace
}  // namespace casched::core
