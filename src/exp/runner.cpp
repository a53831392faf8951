#include "exp/runner.hpp"

#include "scenario/generate.hpp"
#include "scenario/registry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace casched::exp {

ExperimentSpec specFromScenarioSpec(const scenario::ScenarioSpec& scenarioSpec,
                                    std::uint64_t seed) {
  const scenario::CompiledScenario compiled =
      scenario::compileScenario(scenarioSpec, seed);
  ExperimentSpec spec;
  spec.name = compiled.name;
  spec.scenario = scenarioSpec.name;
  spec.testbed = compiled.testbed;
  spec.metatask = compiled.metataskConfig;
  spec.system = compiled.system;
  spec.churn = compiled.churn;
  spec.generatedChurn = compiled.generatedChurn;
  spec.faultDomains = compiled.faultDomains;
  spec.agents = compiled.agents;
  spec.mesh = compiled.mesh;
  return spec;
}

ExperimentSpec specFromScenario(const std::string& scenarioName, std::uint64_t seed) {
  return specFromScenarioSpec(scenario::findScenario(scenarioName), seed);
}

FaultTolerancePolicy parseFaultTolerancePolicy(const std::string& name) {
  const std::string n = util::toLower(name);
  if (n == "paper") return FaultTolerancePolicy::kPaper;
  if (n == "all") return FaultTolerancePolicy::kAll;
  if (n == "none") return FaultTolerancePolicy::kNone;
  if (n == "scenario") return FaultTolerancePolicy::kScenario;
  throw util::ConfigError("unknown fault-tolerance policy '" + name +
                          "' (want scenario | paper | all | none)");
}

const char* faultTolerancePolicyName(FaultTolerancePolicy policy) {
  switch (policy) {
    case FaultTolerancePolicy::kPaper: return "paper";
    case FaultTolerancePolicy::kAll: return "all";
    case FaultTolerancePolicy::kNone: return "none";
    case FaultTolerancePolicy::kScenario: return "scenario";
  }
  return "?";
}

bool grantsFaultTolerance(FaultTolerancePolicy policy, const std::string& heuristic) {
  switch (policy) {
    case FaultTolerancePolicy::kPaper: return util::toLower(heuristic) == "mct";
    case FaultTolerancePolicy::kAll: return true;
    case FaultTolerancePolicy::kNone: return false;
    case FaultTolerancePolicy::kScenario: return false;
  }
  return false;
}

bool resolveFaultTolerance(FaultTolerancePolicy policy, const std::string& heuristic,
                           bool scenarioDefault) {
  if (policy == FaultTolerancePolicy::kScenario) return scenarioDefault;
  return grantsFaultTolerance(policy, heuristic);
}

metrics::RunResult runOne(const ExperimentSpec& spec, const workload::Metatask& metatask,
                          const std::string& heuristic, bool faultTolerance,
                          std::uint64_t noiseSeed) {
  cas::SystemConfig config = spec.system;
  config.faultTolerance = faultTolerance;
  config.noiseSeed = noiseSeed;
  return cas::runExperimentSystem(spec.testbed, metatask, heuristic, config,
                                  spec.churn, spec.agents, spec.mesh);
}

}  // namespace casched::exp
