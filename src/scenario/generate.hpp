#pragma once
/// \file generate.hpp
/// Compiles a declarative ScenarioSpec + master seed into the concrete
/// objects one experiment run needs: a materialized Metatask, a Testbed, the
/// middleware SystemConfig and the churn timeline. Same spec + same seed =>
/// bit-identical compilation (all randomness flows through derived streams).

#include <cstdint>
#include <string>
#include <vector>

#include "cas/churn.hpp"
#include "cas/system.hpp"
#include "metrics/record.hpp"
#include "platform/testbed.hpp"
#include "scenario/spec.hpp"
#include "workload/metatask.hpp"

namespace casched::scenario {

/// Everything a run (or a campaign) needs, materialized from one seed.
struct CompiledScenario {
  std::string name;
  /// The generating config (campaigns re-derive per-metatask seeds from it).
  workload::MetataskConfig metataskConfig;
  workload::Metatask metatask;
  platform::Testbed testbed;
  cas::SystemConfig system;
  /// Hand-written [churn] events followed by the [faults]-generated stream
  /// (same seed => identical timeline), validated as one merged whole.
  std::vector<cas::ChurnEvent> churn;
  /// How many of `churn`'s events the [faults] processes generated.
  std::size_t generatedChurn = 0;
  /// Resolved correlated-failure domains ([faults] rack/zone tagging).
  std::vector<FaultDomainSpec> faultDomains;
  /// Multi-agent deployment shape ([agents] section, validated). Without a
  /// mesh the simulator runs the paper's single agent; the live loopback
  /// harness deploys `agents.count` daemons and applies the agent-crash
  /// events.
  AgentsSpec agents;
  /// Agent-mesh shape ([mesh] section, validated): rack ownership, request
  /// forwarding, work-stealing and topology. When enabled, cas::GridSystem
  /// runs one agent node per mesh agent instead of the paper's single agent
  /// (for runScenario and exp::runOne alike), and the live harness deploys
  /// the same mesh over loopback TCP.
  MeshSpec mesh;
};

/// Resolves a paper-family type name: "matmul-<size>" or "waste-cpu-<param>".
/// Throws util::ConfigError for anything else.
workload::TaskType resolveTypeName(const std::string& name);

CompiledScenario compileScenario(const ScenarioSpec& spec, std::uint64_t seed);

/// Runs one heuristic on a compiled scenario (churn timeline included).
metrics::RunResult runScenario(const CompiledScenario& compiled,
                               const std::string& heuristic);

}  // namespace casched::scenario
