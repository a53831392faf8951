/// casched_report: campaign intelligence CLI. Consumes the JSON records
/// `bench_suite --json` emits and renders paper-style Markdown - per-scenario
/// mean ± sd tables, per-axis sweep series with sparkline bars, automatic
/// best-heuristic crossover detection, re-planning comparisons between two
/// records, the registry catalog, and in-place regeneration of the generated
/// sections of EXPERIMENTS.md (the CI doc-drift gate runs exactly that).
///
///   ./casched_report --json bench_out/suite.json
///   ./casched_report --compare bench_out/run_a.json,bench_out/run_b.json
///   ./casched_report --registry
///   ./casched_report --json bench_out/rate_sweep_study.json --update-docs EXPERIMENTS.md

#include <fstream>
#include <iostream>
#include <sstream>

#include "exp/report.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

using namespace casched;

std::vector<std::string> commaList(const std::string& value) {
  std::vector<std::string> out;
  for (const std::string& field : util::split(value, ',')) {
    const std::string trimmed(util::trim(field));
    if (!trimmed.empty()) out.push_back(trimmed);
  }
  return out;
}

std::string readFileOrDie(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw util::IoError("cannot open '" + path + "'");
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

void writeFileOrDie(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw util::IoError("cannot write '" + path + "'");
  out << text;
}

/// Regenerates the sentinel-delimited regions of a Markdown document: the
/// registry catalog always, and the rate-sweep crossover study when one of
/// the loaded records carries the ablation/rate_sweep scenario.
void updateDocs(const std::string& path,
                const std::vector<exp::ReportSuite>& suites,
                const exp::ReportOptions& options) {
  std::string doc = readFileOrDie(path);
  doc = exp::replaceGeneratedRegion(doc, "registry-catalog",
                                    exp::registryCatalogMarkdown());
  const exp::ReportScenario* sweep = nullptr;
  for (const exp::ReportSuite& suite : suites) {
    sweep = suite.find("ablation/rate_sweep");
    if (sweep != nullptr) break;
  }
  if (sweep != nullptr) {
    exp::ReportOptions studyOptions = options;
    studyOptions.headingLevel = 3;
    doc = exp::replaceGeneratedRegion(doc, "rate-sweep-study",
                                      exp::scenarioReportMarkdown(*sweep,
                                                                  studyOptions));
  }
  writeFileOrDie(path, doc);
  std::cout << "[updated generated regions in " << path
            << (sweep != nullptr ? " (registry catalog + rate-sweep study)"
                                 : " (registry catalog)")
            << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("casched_report",
                       "render Markdown reports from bench_suite JSON records");
  args.addString("json", "",
                 "comma-separated suite record file(s) to render reports for");
  args.addString("compare", "",
                 "two record files 'a.json,b.json' to diff as a re-planning "
                 "study (per-scenario deltas, regressions flagged)");
  args.addString("labels", "",
                 "override the two labels 'a,b' used in the comparison "
                 "heading (default: record file base names)");
  args.addString("metrics", "completed,sumflow,maxflow,maxstretch",
                 "comma-separated metrics covered by tables, sweep series, "
                 "crossover scan and comparisons");
  args.addDouble("threshold", 10.0,
                 "comparison flag threshold in percent (direction-aware: "
                 "past-threshold toward worse = regression)");
  args.addString("out", "", "write the Markdown here instead of stdout");
  args.addBool("registry", false,
               "emit the registry catalog table (every scenario entry with "
               "its campaign shape and sweep axes)");
  args.addString("update-docs", "",
                 "regenerate the '<!-- BEGIN GENERATED: ... -->' regions of "
                 "this Markdown document in place and exit");
  try {
    if (!args.parse(argc, argv)) return 0;

    exp::ReportOptions reportOptions;
    reportOptions.metrics = commaList(args.getString("metrics"));
    if (reportOptions.metrics.empty()) {
      throw util::ConfigError("--metrics wants at least one metric");
    }

    std::vector<exp::ReportSuite> suites;
    for (const std::string& path : commaList(args.getString("json"))) {
      suites.push_back(exp::loadSuiteRecord(path));
    }

    if (!args.getString("update-docs").empty()) {
      updateDocs(args.getString("update-docs"), suites, reportOptions);
      return 0;
    }

    std::ostringstream out;
    if (args.getBool("registry")) {
      out << "## Scenario registry\n\n" << exp::registryCatalogMarkdown() << "\n";
    }
    for (const exp::ReportSuite& suite : suites) {
      out << exp::suiteReportMarkdown(suite, reportOptions);
    }

    const std::vector<std::string> compare =
        commaList(args.getString("compare"));
    if (!compare.empty()) {
      if (compare.size() != 2) {
        throw util::ConfigError("--compare wants exactly two record files");
      }
      exp::ReportSuite a = exp::loadSuiteRecord(compare[0]);
      exp::ReportSuite b = exp::loadSuiteRecord(compare[1]);
      const std::vector<std::string> labels =
          commaList(args.getString("labels"));
      if (!labels.empty()) {
        if (labels.size() != 2) {
          throw util::ConfigError("--labels wants exactly two labels");
        }
        a.label = labels[0];
        b.label = labels[1];
      }
      exp::CompareOptions compareOptions;
      compareOptions.thresholdPct = args.getDouble("threshold");
      compareOptions.metrics = reportOptions.metrics;
      const exp::CompareOutcome outcome = compareSuites(a, b, compareOptions);
      out << outcome.markdown;
      std::cerr << "[compare: " << outcome.regressions << " regression(s), "
                << outcome.improvements << " improvement(s) across "
                << outcome.comparisons << " comparison(s)]\n";
    }

    if (out.str().empty()) {
      throw util::ConfigError(
          "nothing to do: pass --json, --compare, --registry or --update-docs");
    }
    if (args.getString("out").empty()) {
      std::cout << out.str();
    } else {
      writeFileOrDie(args.getString("out"), out.str());
      std::cout << "[wrote " << args.getString("out") << "]\n";
    }
    return 0;
  } catch (const util::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
