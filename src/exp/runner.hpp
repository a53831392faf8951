#pragma once
/// \file runner.hpp
/// Single-experiment execution: one metatask, one heuristic, one system
/// configuration -> one RunResult. The campaign layer builds on this.

#include <string>

#include "cas/system.hpp"
#include "metrics/record.hpp"
#include "platform/testbed.hpp"
#include "scenario/spec.hpp"
#include "workload/metatask.hpp"

namespace casched::exp {

/// Everything that defines an experiment except the heuristic under test.
struct ExperimentSpec {
  std::string name;
  platform::Testbed testbed;
  workload::MetataskConfig metatask;
  cas::SystemConfig system;
  /// Registry scenario this spec was materialized from ("" when hand-built).
  std::string scenario;
  /// Membership events replayed in every run of the experiment (hand-written
  /// [churn] plus the [faults]-generated stream, one per seed).
  std::vector<cas::ChurnEvent> churn;
  /// How many of `churn`'s events the [faults] processes generated.
  std::size_t generatedChurn = 0;
  /// Resolved correlated-failure domains ([faults] rack/zone tagging).
  std::vector<scenario::FaultDomainSpec> faultDomains;
  /// Multi-agent deployment and agent-mesh shape ([agents], [mesh]); an
  /// enabled mesh makes every run of the experiment the multi-agent mesh.
  scenario::AgentsSpec agents;
  scenario::MeshSpec mesh;
};

/// Materializes a registry scenario into an ExperimentSpec: testbed, metatask
/// config (arrival pattern and mix included), system parameters and churn
/// timeline. Campaigns built on it re-derive per-metatask seeds as usual.
ExperimentSpec specFromScenario(const std::string& scenarioName, std::uint64_t seed);

/// Same, from an already-parsed spec (sweep variants, scenario files).
ExperimentSpec specFromScenarioSpec(const scenario::ScenarioSpec& spec,
                                    std::uint64_t seed);

/// How fault tolerance is granted across heuristics in a campaign.
/// kPaper is the paper's setup: NetSolve's MCT has its native re-submission
/// mechanisms, the authors' HMCT/MP/MSF implementations do not (section 5.1).
/// kScenario defers to the scenario's own [system] fault-tolerance flag,
/// applied uniformly to every heuristic.
enum class FaultTolerancePolicy : std::uint8_t { kPaper, kAll, kNone, kScenario };

/// Parses "paper" | "all" | "none" | "scenario"; throws util::ConfigError.
FaultTolerancePolicy parseFaultTolerancePolicy(const std::string& name);
const char* faultTolerancePolicyName(FaultTolerancePolicy policy);

/// True when `heuristic` gets fault tolerance under `policy`. kScenario
/// resolves to false here; use resolveFaultTolerance when a scenario default
/// is in scope.
bool grantsFaultTolerance(FaultTolerancePolicy policy, const std::string& heuristic);

/// grantsFaultTolerance with the kScenario case resolved to the scenario's
/// own [system] flag.
bool resolveFaultTolerance(FaultTolerancePolicy policy, const std::string& heuristic,
                           bool scenarioDefault);

/// Runs one heuristic on one concrete metatask. `noiseSeed` overrides the
/// spec's system noise seed (replications vary it).
metrics::RunResult runOne(const ExperimentSpec& spec, const workload::Metatask& metatask,
                          const std::string& heuristic, bool faultTolerance,
                          std::uint64_t noiseSeed);

}  // namespace casched::exp
