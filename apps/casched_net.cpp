/// casched_net: the distributed runtime's command-line front end. Five
/// subcommands cover deployment, demonstration and operations:
///
///   casched_net agent  [flags]   run an agent daemon (scheduling core + TCP)
///   casched_net server [flags]   run one computational-server daemon
///   casched_net client [flags]   replay a registry scenario's metatask
///                                against a live agent
///   casched_net demo   [flags]   in-process loopback deployment: 1 agent +
///                                N servers + scenario client + live churn
///   casched_net stats  [flags]   fetch a live agent's metrics registry over
///                                the wire protocol (kStatsRequest)
///
/// agent/server/client run as separate OS processes speaking the wire
/// protocol over TCP; demo is the one-command version for CI and first runs.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/htm.hpp"
#include "net/agent_daemon.hpp"
#include "net/client_driver.hpp"
#include "net/loopback.hpp"
#include "net/server_daemon.hpp"
#include "net/turn_wait.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/calibration.hpp"
#include "scenario/faults.hpp"
#include "scenario/generate.hpp"
#include "scenario/registry.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "wire/messages.hpp"
#include "wire/tcp_transport.hpp"

namespace {

using namespace casched;

std::atomic<bool> gStop{false};

void onSignal(int) { gStop.store(true); }

void installSignalHandlers() {
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
}

void writeOrPrint(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::cout << text << "\n";
    return;
  }
  std::ofstream out(path);
  if (!out) throw util::IoError("cannot write '" + path + "'");
  out << text << "\n";
  std::cout << "wrote " << path << "\n";
}

/// Shared `--log-level` plumbing: parseLogLevel rejects unknown names with
/// the full list, so a typo fails fast instead of silently logging at warn.
void applyLogLevel(const util::ArgParser& args) {
  util::Log::setLevel(util::parseLogLevel(args.getString("log-level")));
}

int runAgent(int argc, const char* const* argv) {
  util::ArgParser args("casched_net agent", "Run the agent daemon");
  args.addInt("port", 0, "listening port on 127.0.0.1 (0 picks a free port)");
  args.addString("heuristic", "msf", "scheduler: mct | hmct | mp | msf | ...");
  args.addDouble("scale", 1.0, "simulated seconds per wall second");
  args.addDouble("heartbeat-timeout", 90.0,
                 "sim seconds of server silence before its HTM row is retired");
  args.addBool("ft", false, "fault-tolerant re-submission of failed tasks");
  args.addInt("max-retries", 5, "retry budget under --ft");
  args.addString("htm-sync", "drop-on-notice", "HTM sync policy");
  args.addBool("paper-costs", false, "preload the paper's calibrated cost tables");
  args.addString("name", "agent-0", "agent name announced to peers (unique)");
  args.addString("mode", "replicated", "replication mode: replicated | partitioned");
  args.addString("peers", "",
                 "comma-separated peer agents to dial, host:port each");
  args.addDouble("sync-period", 5.0,
                 "sim seconds between kAgentSync broadcasts and snapshot saves");
  args.addString("snapshot", "",
                 "HTM snapshot file: warm-start source at boot, rewritten every sync");
  args.addString("log-level", "warn", "trace | debug | info | warn | error | off");
  if (!args.parse(argc, argv)) return 0;
  applyLogLevel(args);

  net::AgentDaemonConfig config;
  config.port = static_cast<std::uint16_t>(args.getInt("port"));
  config.heuristic = args.getString("heuristic");
  config.faultTolerance = args.getBool("ft");
  config.maxRetries = static_cast<int>(args.getInt("max-retries"));
  config.htmSync = core::parseSyncPolicy(args.getString("htm-sync"));
  config.heartbeatTimeout = args.getDouble("heartbeat-timeout");
  if (args.getBool("paper-costs")) config.costs = platform::paperCostModel();
  config.agentName = args.getString("name");
  config.mode = net::parseAgentMode(args.getString("mode"));
  config.syncPeriod = args.getDouble("sync-period");
  config.snapshotPath = args.getString("snapshot");
  if (!args.getString("peers").empty()) {
    for (const std::string& peer : util::split(args.getString("peers"), ',')) {
      config.peers.push_back(std::string(util::trim(peer)));
    }
  }

  net::AgentDaemon daemon(std::move(config), net::PacedClock(args.getDouble("scale")));
  std::cout << "agent " << args.getString("name") << " ("
            << args.getString("heuristic") << ", " << args.getString("mode")
            << ") listening on 127.0.0.1:" << daemon.port();
  if (daemon.warmStartedRows() > 0) {
    std::cout << ", warm-started " << daemon.warmStartedRows() << " HTM rows";
  }
  std::cout << "\n";
  daemon.run(gStop);
  std::cout << "agent: shutting down\n";
  return 0;
}

int runServer(int argc, const char* const* argv) {
  util::ArgParser args("casched_net server", "Run one computational-server daemon");
  args.addString("agent-host", "127.0.0.1", "agent address");
  args.addInt("agent-port", 0, "agent port (required)");
  args.addString("name", "grid-0", "server name (unique per agent)");
  args.addDouble("speed", 1.0, "relative compute speed index");
  args.addDouble("bw", 10.0, "link bandwidth, MB/s (both directions)");
  args.addDouble("latency", 0.01, "per-transfer latency, s");
  args.addDouble("ram", 1024.0, "physical memory, MB");
  args.addDouble("swap", 256.0, "swap space, MB");
  args.addDouble("report-period", 30.0, "load-report period, sim seconds");
  args.addDouble("heartbeat-period", 5.0, "heartbeat period, sim seconds");
  args.addDouble("scale", 1.0, "simulated seconds per wall second");
  args.addString("log-level", "warn", "trace | debug | info | warn | error | off");
  if (!args.parse(argc, argv)) return 0;
  applyLogLevel(args);
  const auto port = static_cast<std::uint16_t>(args.getInt("agent-port"));
  if (port == 0) throw util::ConfigError("server needs --agent-port");

  net::NetServerConfig config;
  config.agentHost = args.getString("agent-host");
  config.agentPort = port;
  config.machine.name = args.getString("name");
  config.machine.bwInMBps = args.getDouble("bw");
  config.machine.bwOutMBps = args.getDouble("bw");
  config.machine.latencyIn = args.getDouble("latency");
  config.machine.latencyOut = args.getDouble("latency");
  config.machine.ramMB = args.getDouble("ram");
  config.machine.swapMB = args.getDouble("swap");
  config.speedIndex = args.getDouble("speed");
  config.reportPeriod = args.getDouble("report-period");
  config.heartbeatPeriod = args.getDouble("heartbeat-period");

  net::NetServerDaemon daemon(std::move(config), net::PacedClock(args.getDouble("scale")));
  daemon.connect();
  std::cout << "server " << args.getString("name") << " dialing "
            << args.getString("agent-host") << ":" << port
            << " (registration pending ack)\n";
  daemon.run(gStop);
  std::cout << "server " << args.getString("name") << ": shutting down\n";
  return 0;
}

int runClient(int argc, const char* const* argv) {
  util::ArgParser args("casched_net client",
                       "Replay a registry scenario's metatask against a live agent");
  args.addString("agent-host", "127.0.0.1", "agent address");
  args.addInt("agent-port", 0, "agent port (required)");
  args.addString("scenario", "live-loopback", "registry scenario to replay");
  args.addInt("seed", 1, "metatask generation seed");
  args.addDouble("scale", 1.0, "simulated seconds per wall second");
  args.addDouble("timeout", 120.0, "wall-clock budget, seconds");
  args.addBool("resolver", false,
               "probe agents, learn peers from gossip, re-rank endpoints by "
               "RTT + advertised load");
  args.addDouble("probe-period", 5.0,
                 "sim seconds between resolver probe rounds");
  args.addDouble("load-weight", 1.0,
                 "resolver rank weight of advertised load vs probe RTT");
  if (!args.parse(argc, argv)) return 0;
  const auto port = static_cast<std::uint16_t>(args.getInt("agent-port"));
  if (port == 0) throw util::ConfigError("client needs --agent-port");

  const scenario::CompiledScenario compiled = scenario::compileScenario(
      scenario::findScenario(args.getString("scenario")),
      static_cast<std::uint64_t>(args.getInt("seed")));

  net::ClientConfig config;
  config.agentHost = args.getString("agent-host");
  config.agentPort = port;
  config.resolver = args.getBool("resolver");
  config.probePeriod = args.getDouble("probe-period");
  config.loadWeight = args.getDouble("load-weight");
  net::ClientDriver client(std::move(config), net::PacedClock(args.getDouble("scale")));
  client.connect();
  std::cout << "client: replaying " << compiled.metatask.size() << " tasks of '"
            << compiled.name << "'\n";
  const bool ok = client.run(compiled.metatask, args.getDouble("timeout"), gStop);
  std::cout << util::strformat("client: %zu completed, %zu failed of %zu\n",
                               client.completedCount(), client.failedCount(),
                               compiled.metatask.size());
  if (config.resolver) {
    const net::ClientDriver::ResolverStats& rs = client.resolverStats();
    std::cout << util::strformat(
        "resolver: %llu probes, %llu replies, %llu reranks, %llu learned peers\n",
        static_cast<unsigned long long>(rs.probes),
        static_cast<unsigned long long>(rs.infos),
        static_cast<unsigned long long>(rs.reranks),
        static_cast<unsigned long long>(rs.learnedPeers));
  }
  return ok ? 0 : 1;
}

int runDemo(int argc, const char* const* argv) {
  util::ArgParser args("casched_net demo",
                       "In-process loopback deployment of one registry scenario");
  args.addString("scenario", "live-loopback", "registry scenario to run");
  args.addString("heuristic", "msf", "scheduler: mct | hmct | mp | msf | ...");
  args.addDouble("scale", 200.0, "simulated seconds per wall second");
  args.addInt("seed", 1, "scenario compilation seed");
  args.addDouble("timeout", 120.0, "wall-clock budget, seconds");
  args.addString("json", "", "write the live-run JSON record here");
  args.addBool("compare-sim", false,
               "also run the simulator on the same spec and compare counts");
  args.addInt("max-lost", -1,
              "fail when more than this many tasks are lost (-1 disables)");
  args.addString("trace", "",
                 "write the task-lifecycle trace here (Chrome trace-event JSON)");
  args.addString("metrics-out", "", "write the final metrics registry (JSON) here");
  args.addString("log-level", "warn", "trace | debug | info | warn | error | off");
  if (!args.parse(argc, argv)) return 0;
  applyLogLevel(args);

  const bool tracing = !args.getString("trace").empty();
  if (tracing) obs::TraceBuffer::global().enable(1 << 16);

  net::LiveRunOptions options;
  options.heuristic = args.getString("heuristic");
  options.timeScale = args.getDouble("scale");
  options.seed = static_cast<std::uint64_t>(args.getInt("seed"));
  options.wallTimeoutSeconds = args.getDouble("timeout");
  options.stopFlag = &gStop;

  const std::string name = args.getString("scenario");
  const net::LiveRunReport report = net::runLoopbackScenario(name, options);
  std::cout << util::strformat(
      "live run '%s' (%s, scale %.0fx): %zu/%zu completed, %zu lost, "
      "%llu resubmissions, churn j/l/c/s/b = %llu/%llu/%llu/%llu/%llu, "
      "%.2fs wall (sim t=%.1f)%s\n",
      report.scenario.c_str(), report.heuristic.c_str(), report.timeScale,
      report.completed, report.tasks, report.lost,
      static_cast<unsigned long long>(report.resubmissions),
      static_cast<unsigned long long>(report.churnApplied.joins),
      static_cast<unsigned long long>(report.churnApplied.leaves),
      static_cast<unsigned long long>(report.churnApplied.crashes),
      static_cast<unsigned long long>(report.churnApplied.slowdowns),
      static_cast<unsigned long long>(report.churnApplied.links),
      report.wallSeconds, report.simEndTime, report.timedOut ? " [TIMED OUT]" : "");
  if (report.generatedChurn > 0) {
    std::cout << util::strformat(
        "faults: %zu generated events (digest %016llx), %llu crashes planned, "
        "mean downtime %.1fs, peak %zu down / %zu dead domain(s)\n",
        report.generatedChurn, static_cast<unsigned long long>(report.churnDigest),
        static_cast<unsigned long long>(report.churnPlanned.crashes),
        report.churnPlanned.meanDowntime, report.churnPlanned.maxConcurrentDown,
        report.churnPlanned.maxConcurrentDeadDomains);
  }
  if (report.agentsDeployed > 1) {
    std::cout << util::strformat(
        "agents: %zu %s, %llu crash(es), %llu restart(s), %zu warm rows, "
        "%llu peer syncs, %llu peer rows adopted, %llu client failovers\n",
        report.agentsDeployed, report.agentMode.c_str(),
        static_cast<unsigned long long>(report.agentCrashes),
        static_cast<unsigned long long>(report.agentRestarts), report.warmStartRows,
        static_cast<unsigned long long>(report.peerSyncs),
        static_cast<unsigned long long>(report.peerRowsAdopted),
        static_cast<unsigned long long>(report.clientFailovers));
    for (const net::AgentShare& share : report.perAgent) {
      std::cout << util::strformat(
          "  %-10s %zu tasks, %zu completed, %zu lost, %llu resubmissions\n",
          share.name.c_str(), share.tasks, share.completed, share.lost,
          static_cast<unsigned long long>(share.resubmissions));
    }
    if (report.mesh.total() + report.clientDenies > 0) {
      std::cout << util::strformat(
          "mesh: %llu forwarded, %llu parked, %llu stolen, %llu denied, "
          "%llu client denies\n",
          static_cast<unsigned long long>(report.mesh.forwards),
          static_cast<unsigned long long>(report.mesh.parked),
          static_cast<unsigned long long>(report.mesh.steals),
          static_cast<unsigned long long>(report.mesh.forwardDenies),
          static_cast<unsigned long long>(report.clientDenies));
    }
  }

  if (!args.getString("json").empty()) {
    writeOrPrint(args.getString("json"), net::liveRunJson(report));
  }
  if (tracing) {
    writeOrPrint(args.getString("trace"), obs::TraceBuffer::global().chromeTraceJson());
    obs::TraceBuffer::global().disable();
  }
  if (!args.getString("metrics-out").empty()) {
    writeOrPrint(args.getString("metrics-out"), obs::Registry::global().snapshot().json());
  }

  int rc = report.timedOut || report.completed + report.lost != report.tasks ? 1 : 0;
  const long long maxLost = args.getInt("max-lost");
  if (maxLost >= 0 && report.lost > static_cast<std::size_t>(maxLost)) {
    std::cout << util::strformat("FAIL: %zu tasks lost (budget %lld)\n", report.lost,
                                 maxLost);
    rc = 1;
  }
  if (args.getBool("compare-sim")) {
    const scenario::CompiledScenario compiled =
        scenario::compileScenario(scenario::findScenario(name), options.seed);
    const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
    const std::uint64_t simResub = net::countResubmissions(sim.tasks);
    std::cout << util::strformat(
        "simulator     '%s' (%s): %zu/%zu completed, %zu lost, %llu resubmissions\n",
        compiled.name.c_str(), options.heuristic.c_str(), sim.completedCount(),
        sim.tasks.size(), sim.lostCount(), static_cast<unsigned long long>(simResub));
    bool match = sim.completedCount() == report.completed &&
                 sim.lostCount() == report.lost && simResub == report.resubmissions;
    if (report.generatedChurn > 0) {
      // Both sides replay the one compiled timeline; equal digests prove it.
      const std::uint64_t simDigest = scenario::churnTimelineDigest(compiled.churn);
      std::cout << util::strformat("churn digests: live %016llx, sim %016llx\n",
                                   static_cast<unsigned long long>(report.churnDigest),
                                   static_cast<unsigned long long>(simDigest));
      match = match && simDigest == report.churnDigest;
    }
    std::cout << (match ? "counts MATCH\n" : "counts DIFFER\n");
    if (!match) rc = 1;
  }
  return rc;
}

int runStats(int argc, const char* const* argv) {
  util::ArgParser args("casched_net stats",
                       "Fetch a live agent's metrics registry over the wire protocol");
  args.addString("host", "127.0.0.1", "agent address");
  args.addInt("port", 0, "agent port (required)");
  args.addString("format", "prometheus", "prometheus | json");
  args.addDouble("timeout", 10.0, "wall-clock budget for the reply, seconds");
  args.addString("out", "", "write the snapshot here instead of stdout");
  if (!args.parse(argc, argv)) return 0;
  const auto port = static_cast<std::uint16_t>(args.getInt("port"));
  if (port == 0) throw util::ConfigError("stats needs --port");
  // Validate locally before dialing, so a typo is one round trip cheaper.
  obs::parseStatsFormat(args.getString("format"));

  auto transport = wire::TcpTransport::connect(args.getString("host"), port);
  wire::StatsRequestMsg request;
  request.format = args.getString("format");
  transport->send(wire::MessageType::kStatsRequest, wire::encode(request));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(args.getDouble("timeout"));
  net::TurnWaiter waiter;
  while (std::chrono::steady_clock::now() < deadline &&
         !gStop.load(std::memory_order_relaxed)) {
    bool done = false;
    int rc = 0;
    transport->poll([&](wire::Frame frame) {
      if (frame.type != wire::MessageType::kStatsReply) return;
      const wire::StatsReplyMsg reply = wire::decodeStatsReply(frame.payload);
      done = true;
      if (reply.format == "error") {
        std::cerr << "casched_net stats: agent rejected the request: " << reply.body
                  << "\n";
        rc = 1;
        return;
      }
      std::cerr << "agent " << reply.agentName << " @ sim t=" << reply.sampleTime
                << " (" << reply.format << ")\n";
      writeOrPrint(args.getString("out"), reply.body);
    });
    if (done) return rc;
    if (transport->closed()) throw util::IoError("agent closed the connection");
    // Block until the reply's bytes arrive, the deadline passes or a signal
    // interrupts the wait.
    waiter.watch(transport);
    waiter.wait(std::chrono::duration<double>(deadline - std::chrono::steady_clock::now())
                    .count());
  }
  throw util::IoError("timed out waiting for the stats reply");
}

}  // namespace

int main(int argc, char** argv) {
  installSignalHandlers();
  const std::string usage =
      "usage: casched_net <agent|server|client|demo|stats> [flags]\n"
      "       casched_net <subcommand> --help for per-subcommand flags\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string sub = argv[1];
  // Shift argv so each subcommand parser sees its own flags.
  const int subArgc = argc - 1;
  char** subArgv = argv + 1;
  try {
    if (sub == "agent") return runAgent(subArgc, subArgv);
    if (sub == "server") return runServer(subArgc, subArgv);
    if (sub == "client") return runClient(subArgc, subArgv);
    if (sub == "demo") return runDemo(subArgc, subArgv);
    if (sub == "stats") return runStats(subArgc, subArgv);
    std::cerr << "unknown subcommand '" << sub << "'\n" << usage;
    return 2;
  } catch (const util::Error& e) {
    std::cerr << "casched_net " << sub << ": " << e.what() << "\n";
    return 1;
  }
}
