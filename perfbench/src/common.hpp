#pragma once
/// \file common.hpp
/// Shared pieces of the benchmark driver: run options, the report every
/// workload fills, sample statistics, the placement digest and the process
/// context stored with every record.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double secondsSince(Clock::time_point from) {
  return secondsBetween(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// live-agent offered rate override in requests per wall second; 0 keeps
  /// the workload's fixed rate (used only to measure the saturation point).
  double rate = 0.0;
};

/// What one workload run reports back to main().
struct Report {
  std::vector<std::string> failures;  ///< one line per failed correctness check
  std::uint64_t attempted = 0;        ///< tasks or requests attempted
  std::uint64_t failed = 0;           ///< lost, denied or timed-out ones
  std::map<std::string, double> metrics;
  /// Placement digest of the deterministic workloads (hex), "" otherwise.
  std::string digest;

  bool correct() const { return failures.empty(); }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

Report runSimWorkload(const Options& options);
Report runLiveWorkload(const Options& options);
bool isSimWorkload(const std::string& name);
bool isLiveWorkload(const std::string& name);

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
double mean(const std::vector<double>& values);

/// FNV-1a 64 accumulator for placement digests.
class Fnv {
 public:
  void add(const void* data, std::size_t size);
  void add(std::uint64_t v) { add(&v, sizeof v); }
  void add(double v) { add(&v, sizeof v); }
  void add(const std::string& s) { add(s.data(), s.size()); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::string hex64(std::uint64_t v);

/// Unlabelled counter `name` in a registry delta; 0 when absent.
double counterValue(const casched::obs::RegistrySnapshot& delta, const std::string& name);

/// Peak resident set size of this process (VmHWM), in MB.
double peakRssMb();

/// Machine and build context stored with every record.
std::map<std::string, std::string> runContext();

}  // namespace perfbench
