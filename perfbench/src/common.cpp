#include "common.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Fnv::add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double counterValue(const casched::obs::RegistrySnapshot& delta, const std::string& name) {
  for (const casched::obs::MetricSample& m : delta.metrics) {
    if (m.name == name && m.labels.empty()) return m.value;
  }
  return 0.0;
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string firstLineWith(const char* path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) return line;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

std::string loadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  if (!(in >> one >> five >> fifteen)) return "unknown";
  return one + " " + five + " " + fifteen;
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::map<std::string, std::string> runContext() {
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", compilerName()},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cpu_model", firstLineWith("/proc/cpuinfo", "model name")},
      {"loadavg_at_start", loadAverage()},
  };
}

}  // namespace perfbench
