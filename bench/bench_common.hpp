#pragma once
/// \file bench_common.hpp
/// Shared CLI wiring for the suite bench executables (bench_suite,
/// scenario_matrix). Every experiment spec - testbeds, rates, noise,
/// heuristic sets, sweep axes, table titles - lives in the scenario registry
/// (src/scenario/registry.cpp, see EXPERIMENTS.md); one scenario is
/// `bench_suite --scenarios <name>`, so the flags here are suite-level
/// overrides only.

#include <iostream>
#include <string>

#include "exp/suite.hpp"
#include "exp/tables.hpp"
#include "scenario/registry.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace casched::bench {

inline void addSuiteFlags(util::ArgParser& args) {
  args.addInt("seed", 42, "master seed");
  args.addInt("tasks", 0, "tasks per metatask (0 = scenario value)");
  args.addInt("replications", 0, "replications per metatask (0 = scenario value)");
  args.addInt("metatasks", 0, "distinct metatasks (0 = scenario value)");
  args.addString("heuristics", "", "heuristic list override (comma-separated)");
  args.addString("ft", "", "fault-tolerance policy override: scenario|paper|all|none");
  args.addInt("threads", 0, "replication threads (0 = hardware)");
  args.addString("out", "bench_out", "output directory for table/CSV/JSON twins");
}

inline exp::SuiteOptions suiteOptionsFromFlags(const util::ArgParser& args) {
  exp::SuiteOptions options;
  options.seed = static_cast<std::uint64_t>(args.getInt("seed"));
  options.taskCount = static_cast<std::size_t>(args.getInt("tasks"));
  options.replications = static_cast<std::size_t>(args.getInt("replications"));
  options.metatasks = static_cast<std::size_t>(args.getInt("metatasks"));
  options.threads = static_cast<unsigned>(args.getInt("threads"));
  for (const std::string& h : util::split(args.getString("heuristics"), ',')) {
    const std::string trimmed(util::trim(h));
    if (!trimmed.empty()) options.heuristics.push_back(trimmed);
  }
  if (!args.getString("ft").empty()) {
    options.ftPolicy = exp::parseFaultTolerancePolicy(args.getString("ft"));
  }
  return options;
}

/// Resolves a --scenarios value: "all", a registry group ("paper",
/// "ablation", "traffic"), or an explicit comma-separated list.
inline std::vector<std::string> resolveScenarioList(const std::string& value) {
  const std::string v = util::toLower(util::trim(value));
  if (v == "all") return scenario::scenarioNames();
  if (v == "paper") return scenario::scenarioNamesWithPrefix("paper/");
  if (v == "ablation" || v == "ablations") {
    return scenario::scenarioNamesWithPrefix("ablation/");
  }
  if (v == "churn") return scenario::scenarioNamesWithPrefix("churn/");
  if (v == "traffic") {  // the production-shaped scenarios (no group prefix)
    std::vector<std::string> names;
    for (const std::string& name : scenario::scenarioNames()) {
      if (name.find('/') == std::string::npos) names.push_back(name);
    }
    return names;
  }
  std::vector<std::string> names;
  for (const std::string& n : util::split(value, ',')) {
    const std::string trimmed(util::trim(n));
    if (!trimmed.empty()) names.push_back(trimmed);
  }
  if (names.empty()) throw util::ConfigError("empty scenario list");
  return names;
}

/// Prints one suite scenario: its paper-style table, per-server diagnostics
/// for unswept campaigns, and the perf record.
inline void printSuiteScenario(const exp::SuiteScenarioResult& s) {
  exp::renderSuiteScenarioTable(s).print(std::cout);
  if (!s.swept()) {
    std::cout << "\n";
    exp::renderServerDiagnostics(
        "Per-server diagnostics (first run of each heuristic)",
        s.variants.front().result)
        .print(std::cout);
  }
  std::cout << util::strformat(
      "\n[perf] %s: %.0f events/s (%llu events in %.2fs)\n", s.scenario.c_str(),
      s.eventsPerSecond(), static_cast<unsigned long long>(s.simulatedEvents),
      s.wallSeconds);
}

}  // namespace casched::bench
