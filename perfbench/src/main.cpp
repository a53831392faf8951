// perfbench_driver: runs one benchmark workload and prints its record as a
// JSON document on stdout (diagnostics go to stderr). perfbench/run.py builds
// this binary, runs it, and turns the record into the benchmark's result line.
//
//   perfbench_driver --workload sim-paper --seed 1 --seconds 10 --trace 0

#include <cmath>
#include <exception>
#include <iostream>

#include "common.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

// Numbers from an unoptimized or instrumented build measure a different
// program; refuse them instead of recording them. GCC names its sanitizers
// with macros, clang through __has_feature.
#if defined(__has_feature)
#define PERFBENCH_HAS_FEATURE(x) __has_feature(x)
#else
#define PERFBENCH_HAS_FEATURE(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    PERFBENCH_HAS_FEATURE(address_sanitizer) || PERFBENCH_HAS_FEATURE(thread_sanitizer)
constexpr const char* kBuildProblem = "built with a sanitizer";
#elif !defined(__OPTIMIZE__)
constexpr const char* kBuildProblem = "built without optimization";
#else
constexpr const char* kBuildProblem = nullptr;
#endif

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  casched::util::ArgParser args("perfbench_driver",
                                "runs one casched benchmark workload and prints its record");
  args.addString("workload", "", "sim-paper | sim-saturated | live-agent");
  args.addInt("seed", 1, "workload seed (inputs are generated from it)");
  args.addDouble("seconds", 10.0, "measurement window in wall seconds");
  args.addInt("trace", 0, "1 = traced run reporting the per-layer metrics");
  args.addDouble("rate", 0.0,
                 "live-agent offered rate override, requests per second (0 = fixed rate)");

  try {
    if (!args.parse(argc, argv)) return 0;
    if (kBuildProblem != nullptr) {
      std::cerr << "perfbench: refusing to measure: the driver was " << kBuildProblem
                << " (build type " << PERFBENCH_BUILD_TYPE << ")\n";
      return 3;
    }
    Options options;
    options.workload = args.getString("workload");
    options.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    options.seconds = args.getDouble("seconds");
    options.trace = args.getInt("trace") != 0;
    options.rate = args.getDouble("rate");
    if (options.seconds <= 0.0) {
      std::cerr << "perfbench: --seconds must be positive\n";
      return 2;
    }

    const auto context = runContext();
    Report report;
    if (isSimWorkload(options.workload)) {
      report = runSimWorkload(options);
    } else if (isLiveWorkload(options.workload)) {
      report = runLiveWorkload(options);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload
                << "' (want sim-paper | sim-saturated | live-agent)\n";
      return 2;
    }

    casched::util::JsonWriter json;
    json.beginObject();
    json.key("workload").value(options.workload);
    json.key("seed").value(static_cast<unsigned long long>(options.seed));
    json.key("trace").value(options.trace);
    json.key("context").beginObject();
    for (const auto& [key, value] : context) json.key(key).value(value);
    json.endObject();
    json.key("correct").value(report.correct());
    json.key("failures").beginArray();
    for (const std::string& f : report.failures) json.value(f);
    json.endArray();
    json.key("attempted").value(static_cast<unsigned long long>(report.attempted));
    json.key("failed").value(static_cast<unsigned long long>(report.failed));
    json.key("digest").value(report.digest);
    json.key("metrics").beginObject();
    for (const auto& [name, value] : report.metrics) {
      json.key(name);
      if (std::isfinite(value)) {
        json.value(value);
      } else {
        json.null();  // run.py reports it as a failed check
      }
    }
    json.endObject();
    json.endObject();
    std::cout << json.str() << std::endl;
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
