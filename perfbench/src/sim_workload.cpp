// The simulator workloads. Each run builds a few seeded variants of one
// registry operating point (set-up), then replays their campaigns through
// cas::GridSystem on this thread for the measurement window. Every layer is
// measured from outside: spans around the public calls, benchmark-owned
// simulator events, and counts read through public getters and registry
// deltas. Nothing in the library is instrumented for the benchmark.

#include <cmath>
#include <memory>
#include <optional>

#include "cas/system.hpp"
#include "common.hpp"
#include "core/htm.hpp"
#include "exp/runner.hpp"
#include "metrics/metrics.hpp"
#include "scenario/registry.hpp"
#include "simcore/rng.hpp"
#include "workload/metatask.hpp"

namespace perfbench {

namespace {

using namespace casched;

struct SimDef {
  const char* scenario;
  std::vector<std::string> heuristics;
  std::size_t tasks;  ///< tasks per metatask; 0 keeps the scenario's count
  std::size_t metatasks;
  std::size_t replications;
  std::size_t variants;  ///< distinct seeded campaigns per run
};

/// sim-paper: the paper's Table 8 regime, a full 4-heuristic campaign per
/// variant. sim-saturated: the single-agent operating point of
/// mesh/saturated_rescue with the task count raised (bench_suite --tasks).
SimDef simDef(const std::string& workload) {
  if (workload == "sim-paper") {
    return {"paper/table8_wastecpu_high", {"mct", "hmct", "mp", "msf"}, 0, 3, 3, 8};
  }
  return {"mesh/saturated_rescue", {"msf"}, 800, 1, 1, 4};
}

/// The platform is the fixed operating point; --seed drives the traffic
/// (arrival dates and task types) and the noise of every variant.
constexpr std::uint64_t kPlatformSeed = 42;
/// Set-up is repeated this many times before the window and again after
/// every measurement pass, so its samples span the whole run; the median
/// over all of them is reported.
constexpr int kSetupRepeats = 5;
/// Traced runs sample the HTM every this many simulated seconds.
constexpr double kSamplePeriod = 100.0;

struct Variant {
  exp::ExperimentSpec spec;
  exp::FaultTolerancePolicy ftPolicy = exp::FaultTolerancePolicy::kScenario;
  std::vector<workload::Metatask> metatasks;
  std::optional<std::uint64_t> digest;  ///< from the variant's first campaign
  std::vector<double> cleanWalls;       ///< untraced campaign wall seconds
  std::vector<double> tracedWalls;
};

struct SetupSpans {
  double compile = 0.0;
  double generate = 0.0;
};

Variant buildVariant(const SimDef& def, std::uint64_t seed, std::size_t index,
                     SetupSpans& spans) {
  const auto t0 = Clock::now();
  scenario::ScenarioSpec scen = scenario::findScenario(def.scenario);
  if (def.tasks > 0) scen.workload.count = def.tasks;
  Variant v;
  v.spec = exp::specFromScenarioSpec(scen, kPlatformSeed);
  v.ftPolicy = exp::parseFaultTolerancePolicy(scen.campaign.ftPolicy);
  const std::uint64_t variantSeed = simcore::deriveSeed(seed, index + 1);
  v.spec.metatask.seed = simcore::deriveSeed(variantSeed, 1);
  v.spec.system.noiseSeed = simcore::deriveSeed(variantSeed, 2);
  const auto t1 = Clock::now();
  // Same per-metatask seed derivation as exp::runCampaign.
  for (std::size_t m = 0; m < def.metatasks; ++m) {
    workload::MetataskConfig mc = v.spec.metatask;
    mc.seed = simcore::deriveSeed(v.spec.metatask.seed, 1000 + m);
    mc.name = v.spec.metatask.name + "-M" + std::to_string(m + 1);
    v.metatasks.push_back(workload::generateMetatask(mc));
  }
  spans.compile += secondsBetween(t0, t1);
  spans.generate += secondsSince(t1);
  return v;
}

/// One timed set-up: every variant of the run, compiled and generated.
std::vector<Variant> setUp(const SimDef& def, std::uint64_t seed, std::vector<double>& setupS,
                           std::vector<double>& compileS, std::vector<double>& generateS) {
  SetupSpans spans;
  std::vector<Variant> variants;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < def.variants; ++k) {
    variants.push_back(buildVariant(def, seed, k, spans));
  }
  setupS.push_back(secondsSince(t0));
  compileS.push_back(spans.compile);
  generateS.push_back(spans.generate);
  return variants;
}

/// Brackets every client request event of a run with two benchmark-owned
/// events, one ulp before and exactly at the request's delivery time. The
/// later one is scheduled after the request (higher sequence number), so the
/// wall time between the pair is the agent's placement of that batch:
/// decision, HTM commit and dispatch scheduling.
class DecisionProbe {
 public:
  DecisionProbe(simcore::Simulator& sim, const workload::Metatask& metatask,
                double latency, std::vector<double>& samplesMs)
      : sim_(sim), samplesMs_(samplesMs) {
    const auto& tasks = metatask.tasks;
    for (std::size_t i = 0; i < tasks.size();) {
      std::size_t j = i + 1;
      while (j < tasks.size() && tasks[j].arrival == tasks[i].arrival) ++j;
      // The same expression cas::Client uses for the delivery date.
      times_.push_back(tasks[i].arrival + latency);
      i = j;
    }
  }
  DecisionProbe(const DecisionProbe&) = delete;
  DecisionProbe& operator=(const DecisionProbe&) = delete;

  /// Call before GridSystem::run(): the arming event fires at t=0, after run()
  /// has queued every request, so each later probe outranks its request.
  void arm() {
    if (!times_.empty()) sim_.scheduleAt(0.0, [this] { scheduleNext(); });
  }
  std::uint64_t events() const { return events_; }

 private:
  void scheduleNext() {
    ++events_;
    if (next_ >= times_.size()) return;
    const double at = times_[next_++];
    if (at <= sim_.now()) return scheduleNext();
    sim_.scheduleAt(std::nextafter(at, -INFINITY), [this] {
      ++events_;
      start_ = Clock::now();
    });
    sim_.scheduleAt(at, [this] {
      samplesMs_.push_back(1e3 * secondsSince(start_));
      scheduleNext();
    });
  }

  simcore::Simulator& sim_;
  std::vector<double>& samplesMs_;
  std::vector<double> times_;
  std::size_t next_ = 0;
  Clock::time_point start_{};
  std::uint64_t events_ = 0;
};

/// Traced runs only: a benchmark-owned periodic event that samples each HTM
/// row's in-flight depth and times one read-only previewInto on it.
class HtmSampler {
 public:
  HtmSampler(cas::GridSystem& system, const workload::TaskType& type, double startDelay,
             std::vector<double>& depth, std::vector<double>& previewUs)
      : sim_(system.simulator()),
        htm_(system.agent().htm()),
        startDelay_(startDelay),
        depth_(depth),
        previewUs_(previewUs) {
    dims_.inMB = type.inMB;
    dims_.outMB = type.outMB;
    dims_.cpuSeconds = type.refSeconds;
    for (const std::string& name : htm_.serverNames()) ids_.push_back(htm_.findId(name));
  }
  HtmSampler(const HtmSampler&) = delete;
  HtmSampler& operator=(const HtmSampler&) = delete;

  void arm() { sim_.scheduleAt(0.0, [this] { tick(); }); }
  std::uint64_t events() const { return events_; }
  std::uint64_t previews() const { return previews_; }

 private:
  void tick() {
    ++events_;
    for (const core::ServerId id : ids_) {
      if (!htm_.hasServer(id)) continue;
      depth_.push_back(static_cast<double>(htm_.activeTasks(id)));
      const auto t0 = Clock::now();
      htm_.previewInto(id, dims_, sim_.now(), startDelay_, preview_);
      previewUs_.push_back(1e6 * secondsSince(t0));
      ++previews_;
    }
    sim_.scheduleAfter(kSamplePeriod, [this] { tick(); });
  }

  simcore::Simulator& sim_;
  const core::HistoricalTraceManager& htm_;
  core::TaskDims dims_;
  double startDelay_;
  std::vector<core::ServerId> ids_;
  core::Preview preview_;
  std::vector<double>& depth_;
  std::vector<double>& previewUs_;
  std::uint64_t events_ = 0;
  std::uint64_t previews_ = 0;
};

enum class Mode { kClean, kProbe, kTraced };

/// Everything one pass of campaigns measured.
struct PassStats {
  std::vector<double> runWalls;      ///< seconds per GridSystem::run
  std::vector<double> meanFlow, makespan, maxStretch, htmRelError;
  std::vector<double> flowMs;        ///< per-task simulated flow (warm-up pass only)
  std::vector<double> decisionMs;    ///< kProbe/kTraced, the current pass's samples
  std::vector<double> decisionP50Ms, decisionP99Ms;  ///< kProbe/kTraced, one per pass
  std::vector<double> depth, previewUs;  ///< kTraced
  double aggregateSeconds = 0.0;     ///< metrics::computeMetrics spans
  std::uint64_t tasks = 0, failed = 0, unfinished = 0;
  std::uint64_t events = 0;          ///< system events (benchmark events excluded)
  std::uint64_t htmPreviews = 0;     ///< the agent's own previews
  std::size_t runs = 0;
};

std::uint64_t runCampaign(const SimDef& def, const Variant& v, Mode mode, bool keepFlows,
                          PassStats& out) {
  Fnv digest;
  const exp::ExperimentSpec& spec = v.spec;
  for (std::size_t m = 0; m < v.metatasks.size(); ++m) {
    const workload::Metatask& metatask = v.metatasks[m];
    for (std::size_t r = 0; r < def.replications; ++r) {
      // Same noise-seed derivation as exp::runCampaign.
      const std::uint64_t noiseSeed =
          simcore::deriveSeed(spec.system.noiseSeed, m * def.replications + r + 1);
      for (const std::string& h : def.heuristics) {
        cas::SystemConfig config = spec.system;
        config.faultTolerance =
            exp::resolveFaultTolerance(v.ftPolicy, h, spec.system.faultTolerance);
        config.noiseSeed = noiseSeed;
        const double latency =
            config.controlLatency < 0.0 ? spec.testbed.controlLatency : config.controlLatency;

        cas::GridSystem system(spec.testbed, metatask, h, config);
        system.setChurnTimeline(spec.churn);
        std::unique_ptr<DecisionProbe> probe;
        std::unique_ptr<HtmSampler> sampler;
        if (mode != Mode::kClean) {
          probe = std::make_unique<DecisionProbe>(system.simulator(), metatask, latency,
                                                  out.decisionMs);
          probe->arm();
        }
        if (mode == Mode::kTraced) {
          sampler = std::make_unique<HtmSampler>(system, metatask.tasks.front().type,
                                                 2.0 * latency, out.depth, out.previewUs);
          sampler->arm();
        }

        const auto t0 = Clock::now();
        const metrics::RunResult result = system.run();
        out.runWalls.push_back(secondsSince(t0));

        const auto a0 = Clock::now();
        const metrics::RunMetrics rm = metrics::computeMetrics(result);
        out.aggregateSeconds += secondsSince(a0);

        ++out.runs;
        out.tasks += metatask.size();
        out.failed += metatask.size() - result.completedCount();
        out.unfinished += metatask.size() - system.agent().terminalCount();
        out.meanFlow.push_back(rm.meanFlow);
        out.makespan.push_back(rm.makespan);
        out.maxStretch.push_back(rm.maxStretch);
        out.htmRelError.push_back(result.htmMeanRelErrorPercent);
        std::uint64_t ownEvents = 0;
        std::uint64_t ownPreviews = 0;
        if (probe) ownEvents += probe->events();
        if (sampler) {
          ownEvents += sampler->events();
          ownPreviews = sampler->previews();
        }
        out.events += result.simulatedEvents - ownEvents;
        out.htmPreviews += system.agent().htm().stats().previews - ownPreviews;

        digest.add(h);
        for (const metrics::TaskOutcome& t : result.tasks) {
          if (keepFlows) out.flowMs.push_back(1e3 * t.flow());
          digest.add(t.index);
          digest.add(t.server);
          digest.add(t.completion);
        }
      }
    }
  }
  return digest.value();
}

}  // namespace

bool isSimWorkload(const std::string& name) {
  return name == "sim-paper" || name == "sim-saturated";
}

Report runSimWorkload(const Options& options) {
  const SimDef def = simDef(options.workload);
  Report report;

  // --- set-up: scenario compile + metatask generation, repeated ---
  std::vector<double> setupS, compileS, generateS;
  const auto setUpAgain = [&] {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      setUp(def, options.seed, setupS, compileS, generateS);
    }
  };
  std::vector<Variant> variants = setUp(def, options.seed, setupS, compileS, generateS);
  setUpAgain();

  // --- measurement: whole passes over the variants until the window ends.
  // Pass 0 is an untraced warm-up that supplies the deterministic quality
  // metrics and counts; it is not timed. After it, timed untraced passes
  // alternate with decision-probe passes (traced runs: with traced passes,
  // which carry the decision probe as well as the HTM sampler).
  const auto start = Clock::now();
  PassStats first, clean, probe, traced;
  obs::RegistrySnapshot firstPassDelta;
  for (std::size_t pass = 0; pass < 3 || secondsSince(start) < options.seconds; ++pass) {
    Mode mode = Mode::kClean;
    if (pass % 2 == 1) mode = options.trace ? Mode::kTraced : Mode::kProbe;
    const obs::RegistrySnapshot before = obs::Registry::global().snapshot();
    for (std::size_t k = 0; k < variants.size(); ++k) {
      Variant& v = variants[k];
      PassStats& stats = pass == 0                ? first
                         : mode == Mode::kClean   ? clean
                         : mode == Mode::kProbe   ? probe
                                                  : traced;
      const auto c0 = Clock::now();
      const std::uint64_t digest = runCampaign(def, v, mode, pass == 0, stats);
      const double wall = secondsSince(c0);
      if (mode == Mode::kClean && pass > 0) {  // pass 0 is the warm-up
        v.cleanWalls.push_back(wall);
      } else if (mode == Mode::kTraced) {
        v.tracedWalls.push_back(wall);
      }
      if (!v.digest) {
        v.digest = digest;
      } else {
        report.check(digest == *v.digest,
                     "variant " + std::to_string(k) + ": placement digest changed between "
                     "repeat runs at one seed (" + hex64(*v.digest) + " vs " +
                     hex64(digest) + ")");
      }
    }
    if (mode != Mode::kClean) {
      // Quantiles per pass, then the median over passes: bounded memory and
      // robust to a slow stretch of machine time.
      PassStats& stats = mode == Mode::kProbe ? probe : traced;
      stats.decisionP50Ms.push_back(quantile(stats.decisionMs, 0.50));
      stats.decisionP99Ms.push_back(quantile(stats.decisionMs, 0.99));
      stats.decisionMs.clear();
    }
    if (pass == 0) firstPassDelta = obs::Registry::global().snapshot().since(before);
    setUpAgain();
  }

  // --- correctness ---
  for (const PassStats* s : {&first, &clean, &probe, &traced}) {
    report.attempted += s->tasks;
    report.failed += s->failed;
    report.check(s->unfinished == 0,
                 std::to_string(s->unfinished) + " tasks never reached a terminal state");
    report.check(s->failed == 0, std::to_string(s->failed) + " tasks did not complete");
  }
  Fnv runDigest;
  for (const Variant& v : variants) runDigest.add(*v.digest);
  report.digest = hex64(runDigest.value());

  auto& m = report.metrics;
  if (!options.trace) {
    // Per variant, the median of its timed repeats; then the mean over variants.
    std::vector<double> campaignWalls, taskRates;
    const double tasksPerCampaign = static_cast<double>(
        def.metatasks * def.replications * def.heuristics.size() *
        variants.front().metatasks.front().size());
    for (const Variant& v : variants) {
      campaignWalls.push_back(median(v.cleanWalls));
      taskRates.push_back(tasksPerCampaign / campaignWalls.back());
    }
    m["setup_s"] = median(setupS);
    m["campaign_wall_s"] = mean(campaignWalls);
    m["mean_flow_s"] = mean(first.meanFlow);
    m["makespan_s"] = mean(first.makespan);
    m["max_stretch"] = mean(first.maxStretch);
    m["submit_to_placed_p50_ms"] = median(probe.decisionP50Ms);
    // In the simulator a task's submit-to-terminal time is its simulated flow.
    m["submit_to_terminal_p50_ms"] = quantile(first.flowMs, 0.50);
    m["submit_to_terminal_p99_ms"] = quantile(first.flowMs, 0.99);
    m["achieved_rate_per_s"] = mean(taskRates);
    m["peak_rss_mb"] = peakRssMb();
    return report;
  }

  // --- per-layer metrics (traced run) ---
  // Timings from the untraced timed passes, counts from the warm-up pass.
  const double runSeconds = mean(clean.runWalls);
  const double decisions = counterValue(firstPassDelta, "casched_schedule_decisions_total");
  std::vector<double> overhead;
  for (const Variant& v : variants) {
    overhead.push_back(median(v.tracedWalls) / median(v.cleanWalls) - 1.0);
  }
  m["scenario.compile_s"] = median(compileS);
  m["workload.generate_s"] = median(generateS);
  m["cas.run_s"] = runSeconds;
  m["cas.runs"] = static_cast<double>(first.runs);
  m["simcore.events"] = static_cast<double>(first.events);
  m["simcore.events_per_run_s"] =
      static_cast<double>(first.events) / (runSeconds * static_cast<double>(first.runs));
  m["psched.machine_submits"] = counterValue(firstPassDelta, "casched_machine_submits_total");
  m["psched.collapses"] = counterValue(firstPassDelta, "casched_machine_collapses_total");
  m["core.decisions"] = decisions;
  m["core.htm_previews"] = static_cast<double>(first.htmPreviews);
  m["core.previews_per_decision"] =
      decisions > 0.0 ? static_cast<double>(first.htmPreviews) / decisions : 0.0;
  m["core.htm_depth_p50"] = quantile(traced.depth, 0.50);
  m["core.htm_depth_max"] = quantile(traced.depth, 1.0);
  m["core.htm_preview_us_p50"] = quantile(traced.previewUs, 0.50);
  m["core.htm_preview_us_p99"] = quantile(traced.previewUs, 0.99);
  m["core.htm_rel_error_pct"] = mean(first.htmRelError);
  m["submit_to_placed_p99_ms"] = median(traced.decisionP99Ms);
  m["metrics.aggregate_s"] = first.aggregateSeconds / static_cast<double>(variants.size());
  m["trace.overhead_frac"] = mean(overhead);
  m["failed_frac"] = report.attempted > 0 ? static_cast<double>(report.failed) /
                                                static_cast<double>(report.attempted)
                                          : 0.0;
  // The simulator never touches the network or the daemon poll loop.
  for (const char* name :
       {"net.poll_turns", "net.poll_turn_us_p50", "net.poll_turn_us_p99",
        "net.agent_busy_frac", "net.requests_per_turn", "wire.client_send_us",
        "wire.client_recv_us", "loadgen.lag_p99_ms", "loadgen.outstanding_max"}) {
    m[name] = 0.0;
  }
  m["wire.frames_in"] = counterValue(firstPassDelta, "casched_net_frames_in_total");
  m["wire.frames_out"] = counterValue(firstPassDelta, "casched_net_frames_out_total");
  m["wire.messages_out"] = counterValue(firstPassDelta, "casched_net_messages_out_total");
  m["wire.coalesced_frames_out"] =
      counterValue(firstPassDelta, "casched_net_coalesced_frames_out_total");
  m["wire.bytes_out"] = counterValue(firstPassDelta, "casched_net_bytes_out_total");
  m["wire.decode_errors"] = counterValue(firstPassDelta, "casched_net_decode_errors_total");
  m["wire.messages_per_frame"] =
      m["wire.frames_out"] > 0.0 ? m["wire.messages_out"] / m["wire.frames_out"] : 0.0;
  return report;
}

}  // namespace perfbench
