#include "scenario/generate.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <tuple>

#include "core/htm.hpp"
#include "platform/calibration.hpp"
#include "platform/machine_catalog.hpp"
#include "scenario/faults.hpp"
#include "simcore/rng.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace casched::scenario {

namespace {

/// Stream ids for the independent randomness consumers of one compilation.
/// The metatask generator takes the master seed itself (its own sub-streams
/// are derived inside generateMetatask).
constexpr std::uint64_t kPlatformStream = 11;
constexpr std::uint64_t kNoiseStream = 12;
constexpr std::uint64_t kSchedulerStream = 13;
constexpr std::uint64_t kFaultsStream = 14;

workload::MetataskConfig buildMetataskConfig(const ScenarioSpec& spec,
                                             std::uint64_t seed) {
  CASCHED_CHECK(!spec.workload.mix.empty() || !spec.workload.custom.empty(),
                "scenario '" + spec.name + "' has an empty workload mix");
  workload::MetataskConfig mc;
  mc.count = spec.workload.count;
  mc.meanInterarrival = spec.arrival.meanInterarrival;
  mc.arrival = spec.arrival.pattern;
  mc.seed = seed;
  mc.name = spec.name;
  for (const MixEntry& m : spec.workload.mix) {
    mc.types.push_back(resolveTypeName(m.typeName));
    mc.typeWeights.push_back(m.weight);
  }
  for (const CustomType& c : spec.workload.custom) {
    mc.types.push_back(c.type);
    mc.typeWeights.push_back(c.weight);
  }
  // An all-equal mix IS the uniform draw; drop the weights so the generator
  // takes the same RNG path (and produces the same metatask) as a plain type
  // list - this is what makes the paper/* entries reproduce the historical
  // hand-built bench specs bit-for-bit.
  const bool uniformMix =
      std::all_of(mc.typeWeights.begin(), mc.typeWeights.end(),
                  [&](double w) { return w == mc.typeWeights.front(); });
  if (uniformMix) mc.typeWeights.clear();
  return mc;
}

psched::MachineSpec syntheticMachine(const PlatformSpec& p, const std::string& name) {
  psched::MachineSpec spec;
  spec.name = name;
  spec.bwInMBps = p.bwMBps;
  spec.bwOutMBps = p.bwMBps;
  spec.latencyIn = p.latency;
  spec.latencyOut = p.latency;
  spec.ramMB = p.ramMB;
  spec.swapMB = p.swapMB;
  return spec;
}

platform::Testbed buildPresetTestbed(const ScenarioSpec& spec) {
  const std::string preset = util::toLower(spec.platform.preset);
  if (preset == "set1") return platform::buildSet1();
  if (preset == "set2") return platform::buildSet2();
  if (util::startsWith(preset, "uniform-")) {
    const std::string nStr = preset.substr(std::string("uniform-").size());
    try {
      const int n = std::stoi(nStr);
      CASCHED_CHECK(n > 0, "uniform preset needs a positive server count");
      return platform::buildUniform(static_cast<std::size_t>(n),
                                    spec.platform.bwMBps, spec.platform.latency);
    } catch (const util::Error&) {
      throw;
    } catch (const std::exception&) {
      throw util::ConfigError("bad uniform preset '" + spec.platform.preset + "'");
    }
  }
  throw util::ConfigError("unknown platform preset '" + spec.platform.preset + "'");
}

platform::Testbed buildTemplateTestbed(const ScenarioSpec& spec, std::uint64_t seed) {
  const PlatformSpec& p = spec.platform;
  CASCHED_CHECK(p.servers > 0, "platform template needs at least one server");
  CASCHED_CHECK(!p.catalog.empty(), "platform template needs a catalog list");
  simcore::RandomStream spread(simcore::deriveSeed(seed, kPlatformStream));

  platform::Testbed bed;
  bed.name = spec.name + "-platform";
  const bool uniform = p.catalog.size() == 1 && util::toLower(p.catalog[0]) == "uniform";
  const platform::CostModel paperCosts = platform::paperCostModel();
  for (std::size_t i = 0; i < p.servers; ++i) {
    const double factor =
        p.heterogeneity > 0.0
            ? spread.uniform(1.0 - p.heterogeneity, 1.0 + p.heterogeneity)
            : 1.0;
    if (uniform) {
      const std::string name = util::strformat("grid-%zu", i);
      bed.servers.push_back(syntheticMachine(p, name));
      bed.costs.setSpeedIndex(name, factor);
    } else {
      const std::string& base = p.catalog[i % p.catalog.size()];
      psched::MachineSpec clone = platform::buildPaperMachine(base);
      clone.name = util::strformat("%s-%zu", base.c_str(), i);
      bed.servers.push_back(std::move(clone));
      // Clones have no calibrated per-type cost rows, so computeCost falls
      // back to refSeconds / speedIndex; anchor it at the original's speed.
      bed.costs.setSpeedIndex(bed.servers.back().name,
                              paperCosts.speedIndex(base) * factor);
    }
  }
  return bed;
}

cas::SystemConfig buildSystemConfig(const ScenarioSpec& spec, std::uint64_t seed) {
  const SystemSpec& s = spec.system;
  cas::SystemConfig config;
  config.reportPeriod = s.reportPeriod;
  config.faultTolerance = s.faultTolerance;
  config.maxRetries = s.maxRetries;
  config.htmSync = core::parseSyncPolicy(s.htmSync);
  config.cpuNoise = {s.cpuNoiseAmplitude, 5.0};
  config.linkNoise = {s.linkNoiseAmplitude, 5.0};
  config.noiseSeed = simcore::deriveSeed(seed, kNoiseStream);
  config.schedulerSeed = simcore::deriveSeed(seed, kSchedulerStream);
  return config;
}

std::vector<cas::ChurnEvent> buildHandChurn(const ScenarioSpec& spec) {
  std::vector<cas::ChurnEvent> events;
  events.reserve(spec.churn.size());
  for (const ChurnSpec& c : spec.churn) {
    cas::ChurnEvent e;
    e.time = c.time;
    e.action = cas::parseChurnAction(c.action);
    e.server = c.server;
    e.duration = c.duration;
    if (e.action == cas::ChurnAction::kJoin) {
      e.joinSpec = syntheticMachine(spec.platform, c.server);
      e.speedIndex = c.value;
      CASCHED_CHECK(e.speedIndex > 0.0, "join speed index must be positive");
    } else if (e.action == cas::ChurnAction::kSlowdown ||
               e.action == cas::ChurnAction::kLink) {
      e.factor = c.value;
      CASCHED_CHECK(e.factor > 0.0, "churn capacity factor must be positive");
    }
    events.push_back(std::move(e));
  }
  return events;
}

/// Validates a (hand-written + generated) timeline against the membership it
/// implies, in time order. Rejects events on unknown or departed servers and
/// exact duplicates - both used to silently no-op in the live path, so a
/// typo'd server name made live and simulated runs diverge without a trace.
void validateChurnTimeline(const std::vector<cas::ChurnEvent>& events,
                           const platform::Testbed& testbed) {
  std::vector<const cas::ChurnEvent*> ordered;
  ordered.reserve(events.size());
  for (const cas::ChurnEvent& e : events) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const cas::ChurnEvent* a, const cas::ChurnEvent* b) {
                     return a->time < b->time;
                   });
  std::set<std::string> present;
  std::set<std::string> departed;
  std::set<std::tuple<double, cas::ChurnAction, std::string>> seen;
  for (const psched::MachineSpec& s : testbed.servers) present.insert(s.name);
  for (const cas::ChurnEvent* e : ordered) {
    CASCHED_CHECK(seen.emplace(e->time, e->action, e->server).second,
                  util::strformat("duplicate churn event '%s %s' at t=%g",
                                  cas::churnActionName(e->action).c_str(),
                                  e->server.c_str(), e->time));
    if (e->action == cas::ChurnAction::kJoin) {
      CASCHED_CHECK(present.insert(e->server).second && departed.count(e->server) == 0,
                    "churn join reuses server name '" + e->server + "'");
    } else {
      CASCHED_CHECK(present.count(e->server) == 1,
                    "churn event targets unknown or departed server '" + e->server + "'");
      if (e->action == cas::ChurnAction::kLeave) {
        present.erase(e->server);
        departed.insert(e->server);
      }
    }
  }
}

}  // namespace

workload::TaskType resolveTypeName(const std::string& name) {
  const auto parseParam = [&](std::string_view prefix) -> int {
    const std::string paramStr(name.substr(prefix.size()));
    try {
      return std::stoi(paramStr);
    } catch (const std::exception&) {
      throw util::ConfigError("bad task-type parameter in '" + name + "'");
    }
  };
  if (util::startsWith(name, "matmul-")) {
    return workload::makeMatmulType(parseParam("matmul-"));
  }
  if (util::startsWith(name, "waste-cpu-")) {
    return workload::makeWasteCpuType(parseParam("waste-cpu-"));
  }
  throw util::ConfigError("unknown task type '" + name +
                          "' (want matmul-<size> or waste-cpu-<param>)");
}

CompiledScenario compileScenario(const ScenarioSpec& spec, std::uint64_t seed) {
  CASCHED_CHECK(!spec.name.empty(), "scenario needs a name");
  CompiledScenario out;
  out.name = spec.name;
  out.metataskConfig = buildMetataskConfig(spec, seed);
  out.metatask = workload::generateMetatask(out.metataskConfig);
  out.testbed = spec.platform.kind == PlatformKind::kPreset
                    ? buildPresetTestbed(spec)
                    : buildTemplateTestbed(spec, seed);
  out.system = buildSystemConfig(spec, seed);
  out.churn = buildHandChurn(spec);
  if (spec.faults.enabled()) {
    std::vector<std::string> serverNames;
    serverNames.reserve(out.testbed.servers.size());
    for (const psched::MachineSpec& s : out.testbed.servers) {
      serverNames.push_back(s.name);
    }
    out.faultDomains = resolveFaultDomains(spec.faults, serverNames);
    std::vector<cas::ChurnEvent> generated =
        generateFaultTimeline(spec.faults, serverNames, out.faultDomains,
                              simcore::deriveSeed(seed, kFaultsStream));
    if (spec.faults.hasTrace()) {
      // The replayed trace joins the same generated stream: it is part of
      // the [faults] compilation, so it counts toward generatedChurn and
      // folds into the same churn digest sim and live both replay.
      std::vector<cas::ChurnEvent> traced =
          compileFaultTrace(spec.faults, serverNames);
      generated.insert(generated.end(), std::make_move_iterator(traced.begin()),
                       std::make_move_iterator(traced.end()));
      std::stable_sort(generated.begin(), generated.end(),
                       [](const cas::ChurnEvent& a, const cas::ChurnEvent& b) {
                         return a.time < b.time;
                       });
    }
    out.generatedChurn = generated.size();
    out.churn.insert(out.churn.end(), std::make_move_iterator(generated.begin()),
                     std::make_move_iterator(generated.end()));
  }
  // Hand-written and generated events are validated as one merged timeline:
  // a generated crash landing on a server the hand timeline already removed
  // is a spec error, not a silent no-op.
  validateChurnTimeline(out.churn, out.testbed);
  out.agents = spec.agents;
  CASCHED_CHECK(out.agents.count > 0, "agent count must be positive");
  CASCHED_CHECK(out.agents.syncPeriod > 0.0, "agent sync-period must be positive");
  // A single-agent deployment takes the plain loopback path, which never
  // reads agent events - reject the combination instead of dropping churn
  // the spec asked for.
  CASCHED_CHECK(out.agents.events.empty() || out.agents.count > 1,
                "agent crash events need an [agents] count of at least 2");
  for (const AgentEventSpec& e : out.agents.events) {
    CASCHED_CHECK(e.agentIndex < out.agents.count,
                  util::strformat("agent event targets agent %zu of %zu",
                                  e.agentIndex, out.agents.count));
  }
  out.mesh = spec.mesh;
  if (out.mesh.enabled) {
    CASCHED_CHECK(out.agents.count > 1, "[mesh] needs an [agents] count of at least 2");
    CASCHED_CHECK(out.agents.mode == "partitioned",
                  "[mesh] needs [agents] mode = partitioned");
    CASCHED_CHECK(out.mesh.overloadThreshold >= 0.0,
                  "mesh overload-threshold must be >= 0");
    CASCHED_CHECK(out.mesh.stealPeriod >= 0.0, "mesh steal-period must be >= 0");
    CASCHED_CHECK(out.churn.empty() && out.agents.events.empty(),
                  "[mesh] scenarios do not support churn or agent events yet");
    const bool tree = out.mesh.topology == "tree";
    if (tree) {
      CASCHED_CHECK(out.mesh.root < out.agents.count,
                    util::strformat("mesh root %zu targets agent %zu of %zu",
                                    out.mesh.root, out.mesh.root, out.agents.count));
    }
    // Rack coverage must be total and disjoint: every platform server named
    // exactly once, so sim and live derive one identical ownership map.
    std::vector<bool> owned(out.testbed.servers.size(), false);
    for (const RackSpec& rack : out.mesh.racks) {
      CASCHED_CHECK(rack.agentIndex < out.agents.count,
                    util::strformat("mesh rack targets agent %zu of %zu",
                                    rack.agentIndex, out.agents.count));
      CASCHED_CHECK(!tree || rack.agentIndex != out.mesh.root,
                    "the mesh root routes between racks; it cannot own one");
      for (const std::size_t s : rack.servers) {
        CASCHED_CHECK(s < out.testbed.servers.size(),
                      util::strformat("mesh rack names server %zu of %zu", s,
                                      out.testbed.servers.size()));
        CASCHED_CHECK(!owned[s],
                      util::strformat("server %zu appears in two mesh racks", s));
        owned[s] = true;
      }
    }
    for (std::size_t s = 0; s < owned.size(); ++s) {
      CASCHED_CHECK(owned[s], util::strformat(
                                  "server %zu is in no mesh rack (coverage "
                                  "must be total)", s));
    }
  }
  return out;
}

metrics::RunResult runScenario(const CompiledScenario& compiled,
                               const std::string& heuristic) {
  return cas::runExperimentSystem(compiled.testbed, compiled.metatask, heuristic,
                                  compiled.system, compiled.churn, compiled.agents,
                                  compiled.mesh);
}

}  // namespace casched::scenario
