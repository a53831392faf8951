// Agent-mesh subsystem: [mesh] parsing/validation, the shared router policy,
// and the multi-agent mesh in cas::GridSystem (forwarding, hierarchy,
// work-stealing), reached the same way from every experiment entry point.
// The live-vs-sim count-agreement tests for the mesh registry entries live in
// net_test.cpp next to the other loopback harness tests.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "mesh/agent_node.hpp"
#include "mesh/router.hpp"
#include "scenario/generate.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "util/error.hpp"
#include "workload/task_types.hpp"

namespace casched {
namespace {

using scenario::CompiledScenario;
using scenario::ScenarioSpec;

// --- router policy -------------------------------------------------------

mesh::MeshConfig routerConfig(bool forwarding, double threshold, bool stealing) {
  mesh::MeshConfig c;
  c.enabled = true;
  c.forwarding = forwarding;
  c.hopLimit = 1;
  c.overloadThreshold = threshold;
  c.stealPeriod = stealing ? 5.0 : 0.0;
  return c;
}

TEST(MeshRouter, FeasibleAndCalmStaysLocal) {
  mesh::LocalView local;
  local.feasible = true;
  local.meanLoad = 0.5;
  const std::vector<mesh::PeerDigest> peers{{1, "peer1", 0.0, 4, 0}};
  const auto d = decideRoute(routerConfig(true, 0.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kLocal);
}

TEST(MeshRouter, OverloadForwardsOnlyToALessLoadedPeer) {
  mesh::LocalView local;
  local.feasible = true;
  local.now = 100.0;
  local.predictedCompletion = 400.0;  // 300 s out, threshold 90
  local.meanLoad = 3.0;
  std::vector<mesh::PeerDigest> peers{{1, "peer1", 1.0, 4, 0}, {2, "peer2", 0.5, 2, 0}};
  auto d = decideRoute(routerConfig(true, 90.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kForward);
  EXPECT_EQ(d.peer, 2u);  // least loaded wins
  // Every peer busier than us: place locally anyway.
  peers = {{1, "peer1", 5.0, 4, 0}};
  d = decideRoute(routerConfig(true, 90.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kLocal);
  // Under the threshold: never forward.
  local.predictedCompletion = 150.0;
  peers = {{1, "peer1", 0.0, 4, 0}};
  d = decideRoute(routerConfig(true, 90.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kLocal);
}

TEST(MeshRouter, InfeasibleForwardsParksOrDenies) {
  mesh::LocalView local;  // no feasible server
  std::vector<mesh::PeerDigest> peers{{1, "peer1", 9.0, 2, 0}};
  // Any capable peer takes an infeasible request, load regardless.
  auto d = decideRoute(routerConfig(true, 0.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kForward);
  EXPECT_EQ(d.peer, 1u);
  // Peers with zero live servers cannot help: deny (or park when stealing).
  peers = {{1, "peer1", 0.0, 0, 0}};
  d = decideRoute(routerConfig(true, 0.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kDeny);
  d = decideRoute(routerConfig(true, 0.0, true), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kPark);
  // Hop limit spent: no second forward.
  local.hops = 1;
  peers = {{1, "peer1", 0.0, 4, 0}};
  d = decideRoute(routerConfig(true, 0.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kDeny);
}

// --- AgentNode: the agent's bookkeeping, driven with no transport ----------
//
// Each case plays the events an agent would feed the node and ends with the
// node drained: no entry survives a task that reached its terminal state.

mesh::AgentNode meshNode(const std::string& name, bool stealing = false,
                         std::uint32_t hopLimit = 1) {
  mesh::MeshConfig config = routerConfig(true, 0.0, stealing);
  config.hopLimit = hopLimit;
  config.stealBatch = 2;
  return mesh::AgentNode(config, name);
}

workload::TaskInstance meshTask(std::uint64_t id) {
  workload::TaskInstance task;
  task.index = id;
  task.type = workload::makeSyntheticType("work", 0.0, 10.0, 0.0, 0.0);
  return task;
}

mesh::LocalView view(bool feasible, std::uint32_t hops = 0) {
  mesh::LocalView local;
  local.feasible = feasible;
  local.hops = hops;
  return local;
}

const auto kFeasible = [](const workload::TaskInstance&) { return true; };
const auto kInfeasible = [](const workload::TaskInstance&) { return false; };
const auto kNotElsewhere = [](std::uint64_t) { return false; };

TEST(MeshNode, ParkedTaskIsStolenAndTaggedWithItsVictim) {
  mesh::AgentNode root = meshNode("root", /*stealing=*/true);
  mesh::AgentNode leaf = meshNode("leaf", /*stealing=*/true);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(root.route(meshTask(id), "", view(false), {}).kind, mesh::RouteKind::kPark);
  }
  EXPECT_EQ(root.parked().size(), 3u);

  // The idle leaf picks the peer with parked work; a busy or serverless one
  // does not steal.
  const std::vector<mesh::PeerDigest> digests{{0, "root", 0.0, 0, 3}};
  ASSERT_EQ(leaf.stealTarget(2, digests), std::optional<std::size_t>(0));
  EXPECT_FALSE(leaf.stealTarget(0, digests).has_value());
  EXPECT_FALSE(root.stealTarget(2, {}).has_value());

  // Oldest first, up to the batch; the grant is placed at the thief.
  std::vector<workload::TaskInstance> granted =
      root.stealRequested("leaf", leaf.config().stealBatch);
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(granted[0].index, 1u);
  EXPECT_EQ(root.parked().size(), 1u);
  const mesh::StealPlacement placement =
      leaf.stealGranted("root", std::move(granted), kNotElsewhere);
  ASSERT_EQ(placement.place.size(), 2u);
  EXPECT_TRUE(placement.refused.empty());
  EXPECT_EQ(leaf.originOf(1), "steal:root");
  EXPECT_EQ(leaf.stats().steals, 2u);
  EXPECT_EQ(root.stats().parked, 3u);

  // Terminal at the thief names the victim; the victim relays to its client.
  for (std::uint64_t id = 1; id <= 2; ++id) {
    const mesh::TerminalRelay here = leaf.terminal(id);
    EXPECT_FALSE(here.handedOff);
    EXPECT_EQ(here.fromAgent, "root");
    const mesh::TerminalRelay back = root.terminal(id);
    EXPECT_TRUE(back.handedOff);
    EXPECT_EQ(back.fromAgent, "");
  }
  EXPECT_EQ(leaf.originOf(1), "local");
  EXPECT_EQ(leaf.entryCount(), 0u);
  // Only task 3, still parked, is held.
  EXPECT_EQ(root.entryCount(), 1u);
  EXPECT_TRUE(root.holds(3));
  ASSERT_EQ(root.stealRequested("leaf", 4).size(), 1u);
  EXPECT_TRUE(root.terminal(3).handedOff);
  EXPECT_EQ(root.entryCount(), 0u);
}

TEST(MeshNode, TasksHandedToALostPeerComeBackToBeRerouted) {
  mesh::AgentNode node = meshNode("a");
  const std::vector<mesh::PeerDigest> both{{0, "b", 1.0, 2, 0}, {1, "c", 2.0, 2, 0}};
  for (std::uint64_t id = 1; id <= 2; ++id) {
    const mesh::RouteDecision d = node.route(meshTask(id), "", view(false), both);
    ASSERT_EQ(d.kind, mesh::RouteKind::kForward);
    EXPECT_EQ(d.peer, 0u);  // least loaded
  }
  EXPECT_EQ(node.stats().forwards, 2u);
  EXPECT_TRUE(node.peerLost("c").empty());

  const std::vector<mesh::HeldTask> orphans = node.peerLost("b");
  ASSERT_EQ(orphans.size(), 2u);
  EXPECT_EQ(orphans[0].task.index, 1u);
  EXPECT_EQ(orphans[0].fromAgent, "");
  EXPECT_EQ(node.entryCount(), 0u);

  const std::vector<mesh::PeerDigest> survivors{{1, "c", 2.0, 2, 0}};
  for (const mesh::HeldTask& orphan : orphans) {
    const mesh::RouteDecision d =
        node.route(orphan.task, orphan.fromAgent, view(false), survivors);
    ASSERT_EQ(d.kind, mesh::RouteKind::kForward);
    EXPECT_EQ(d.peer, 1u);
  }
  for (std::uint64_t id = 1; id <= 2; ++id) {
    EXPECT_TRUE(node.terminal(id).handedOff);
  }
  EXPECT_EQ(node.entryCount(), 0u);
}

TEST(MeshNode, DeniedForwardRunsHereWhenFeasibleAndIsDeniedOtherwise) {
  mesh::AgentNode node = meshNode("a", /*stealing=*/false, /*hopLimit=*/2);
  const std::vector<mesh::PeerDigest> peers{{0, "b", 0.0, 2, 0}};
  // Task 1 from a client, task 2 forwarded here by "x", task 3 from a client.
  ASSERT_EQ(node.route(meshTask(1), "", view(false), peers).kind, mesh::RouteKind::kForward);
  ASSERT_EQ(node.route(meshTask(2), "x", view(false, 1), peers).kind,
            mesh::RouteKind::kForward);
  ASSERT_EQ(node.route(meshTask(3), "", view(false), peers).kind, mesh::RouteKind::kForward);
  EXPECT_FALSE(node.forwardDenied(99, kFeasible).has_value());

  // A server that can run it has appeared here: place it.
  auto bounce = node.forwardDenied(1, kFeasible);
  ASSERT_TRUE(bounce.has_value());
  EXPECT_TRUE(bounce->placeHere);
  EXPECT_EQ(bounce->task.index, 1u);
  EXPECT_FALSE(node.holds(1));  // a client's task needs no entry to run here

  bounce = node.forwardDenied(2, kFeasible);
  ASSERT_TRUE(bounce.has_value());
  EXPECT_TRUE(bounce->placeHere);
  EXPECT_EQ(node.originOf(2), "forward:x");

  // Nothing here can run it: the refusal goes on to the requester.
  bounce = node.forwardDenied(3, kInfeasible);
  ASSERT_TRUE(bounce.has_value());
  EXPECT_FALSE(bounce->placeHere);
  EXPECT_EQ(bounce->fromAgent, "");
  node.denied();
  EXPECT_EQ(node.stats().forwardDenies, 1u);

  const mesh::TerminalRelay relay = node.terminal(2);
  EXPECT_FALSE(relay.handedOff);
  EXPECT_EQ(relay.fromAgent, "x");
  EXPECT_FALSE(node.terminal(1).handedOff);
  EXPECT_EQ(node.entryCount(), 0u);
}

TEST(MeshNode, DuplicateIdsAreRejected) {
  mesh::AgentNode node = meshNode("a", /*stealing=*/true);
  ASSERT_EQ(node.route(meshTask(5), "", view(false), {}).kind, mesh::RouteKind::kPark);
  const mesh::RouteDecision again = node.route(meshTask(5), "", view(false), {});
  EXPECT_EQ(again.kind, mesh::RouteKind::kDeny);
  EXPECT_STREQ(again.reason, "task id already used");
  EXPECT_EQ(node.parked().size(), 1u);

  // A grant is refused for an id held by the node or by its scheduling core.
  std::vector<workload::TaskInstance> grant{meshTask(5), meshTask(6), meshTask(7)};
  const mesh::StealPlacement placement = node.stealGranted(
      "b", std::move(grant), [](std::uint64_t id) { return id == 6; });
  ASSERT_EQ(placement.place.size(), 1u);
  EXPECT_EQ(placement.place[0].index, 7u);
  EXPECT_EQ(placement.refused, (std::vector<std::uint64_t>{5, 6}));
  EXPECT_STREQ(placement.reason, "task id already used");

  // Without the mesh, nothing is taken from a peer.
  mesh::AgentNode plain(mesh::MeshConfig{}, "plain");
  EXPECT_EQ(plain.route(meshTask(8), "", view(false), {}).kind, mesh::RouteKind::kLocal);
  EXPECT_EQ(plain.route(meshTask(8), "b", view(true), {}).kind, mesh::RouteKind::kDeny);
  const mesh::StealPlacement refused =
      plain.stealGranted("b", {meshTask(9)}, kNotElsewhere);
  EXPECT_TRUE(refused.place.empty());
  EXPECT_STREQ(refused.reason, "mesh disabled");
  EXPECT_EQ(plain.entryCount(), 0u);

  EXPECT_FALSE(node.terminal(7).handedOff);
  ASSERT_EQ(node.stealRequested("c", 4).size(), 1u);
  EXPECT_TRUE(node.terminal(5).handedOff);
  EXPECT_EQ(node.entryCount(), 0u);
}

TEST(MeshNode, HopLimitAndSenderBoundForwarding) {
  mesh::AgentNode node = meshNode("a", /*stealing=*/false, /*hopLimit=*/2);
  const std::vector<mesh::PeerDigest> peers{{0, "b", 0.0, 2, 0}, {1, "c", 1.0, 2, 0}};
  // One hop left: forwarded, and never straight back to the sender "b".
  mesh::RouteDecision d = node.route(meshTask(1), "b", view(false, 1), peers);
  ASSERT_EQ(d.kind, mesh::RouteKind::kForward);
  EXPECT_EQ(d.peer, 1u);
  // Hops spent: denied, although capable peers exist.
  d = node.route(meshTask(2), "b", view(false, 2), peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kDeny);
  EXPECT_STREQ(d.reason, "hop-limit");
  // The sender is the only capable peer: nobody to forward to.
  const std::vector<mesh::PeerDigest> senderOnly{{0, "b", 0.0, 2, 0}};
  d = node.route(meshTask(3), "b", view(false, 1), senderOnly);
  EXPECT_EQ(d.kind, mesh::RouteKind::kDeny);
  EXPECT_EQ(node.stats().forwards, 1u);

  const mesh::TerminalRelay relay = node.terminal(1);
  EXPECT_TRUE(relay.handedOff);
  EXPECT_EQ(relay.fromAgent, "b");
  EXPECT_EQ(node.entryCount(), 0u);
}

// --- [mesh] parsing + validation -----------------------------------------

TEST(MeshScenario, MeshSectionRoundTripsThroughTheParser) {
  const ScenarioSpec spec = scenario::findScenario("mesh/saturated_rescue");
  ASSERT_TRUE(spec.mesh.enabled);
  EXPECT_TRUE(spec.mesh.forwarding);
  EXPECT_EQ(spec.mesh.hopLimit, 1u);
  EXPECT_DOUBLE_EQ(spec.mesh.overloadThreshold, 60.0);
  EXPECT_EQ(spec.mesh.topology, "flat");
  ASSERT_EQ(spec.mesh.racks.size(), 2u);
  EXPECT_EQ(spec.mesh.racks[0].agentIndex, 0u);
  EXPECT_EQ(spec.mesh.racks[0].servers, (std::vector<std::size_t>{0}));
  EXPECT_EQ(spec.mesh.racks[1].servers, (std::vector<std::size_t>{1, 2, 3}));

  const std::string rendered = scenario::renderScenario(spec);
  const ScenarioSpec reparsed = scenario::parseScenario(rendered);
  ASSERT_TRUE(reparsed.mesh.enabled);
  EXPECT_EQ(reparsed.mesh.hopLimit, spec.mesh.hopLimit);
  EXPECT_DOUBLE_EQ(reparsed.mesh.overloadThreshold, spec.mesh.overloadThreshold);
  ASSERT_EQ(reparsed.mesh.racks.size(), 2u);
  EXPECT_EQ(reparsed.mesh.racks[1].servers, spec.mesh.racks[1].servers);

  const ScenarioSpec steal = scenario::findScenario("mesh/steal_tree");
  EXPECT_FALSE(steal.mesh.forwarding);
  EXPECT_DOUBLE_EQ(steal.mesh.stealPeriod, 5.0);
  EXPECT_EQ(steal.mesh.stealBatch, 2u);
  EXPECT_EQ(steal.mesh.topology, "tree");
}

TEST(MeshScenario, ValidationRejectsBrokenMeshShapes) {
  ScenarioSpec spec = scenario::findScenario("mesh/saturated_rescue");

  // Churn and mesh do not compose yet.
  ScenarioSpec churny = spec;
  churny.churn.push_back({10.0, "crash", "grid-0", 1.0, 0.0});
  EXPECT_THROW(compileScenario(churny, 1), util::Error);

  // Racks must cover the whole testbed.
  ScenarioSpec partial = spec;
  partial.mesh.racks[1].servers = {1, 2};
  EXPECT_THROW(compileScenario(partial, 1), util::Error);

  // A tree root must not own a rack.
  ScenarioSpec rootRack = scenario::findScenario("mesh/hierarchy_4agent");
  rootRack.mesh.racks[0].agentIndex = 0;
  EXPECT_THROW(compileScenario(rootRack, 1), util::Error);

  // Mesh needs the partitioned multi-agent mode.
  ScenarioSpec replicated = spec;
  replicated.agents.mode = "replicated";
  EXPECT_THROW(compileScenario(replicated, 1), util::Error);
}

// --- mesh simulator ------------------------------------------------------

/// Names of the servers owned by `agentIndex` in the compiled scenario.
std::set<std::string> rackServers(const CompiledScenario& compiled,
                                  std::size_t agentIndex) {
  std::set<std::string> names;
  for (const scenario::RackSpec& rack : compiled.mesh.racks) {
    if (rack.agentIndex != agentIndex) continue;
    for (const std::size_t s : rack.servers) {
      names.insert(compiled.testbed.servers.at(s).name);
    }
  }
  return names;
}

TEST(MeshSim, SaturatedPartitionRescuedWithZeroLostTasks) {
  const CompiledScenario compiled =
      compileScenario(scenario::findScenario("mesh/saturated_rescue"), 7);
  const metrics::RunResult result = runScenario(compiled, "msf");

  EXPECT_EQ(result.lostCount(), 0u);
  EXPECT_EQ(result.completedCount(), compiled.metatask.size());
  EXPECT_GT(result.mesh.forwards, 0u);
  EXPECT_EQ(result.mesh.forwardDenies, 0u);

  // Flat topology round-robins clients over the two agents; agent0's single
  // server saturates, so at least 30% of its half of the metatask must be
  // rescued onto agent1's rack.
  const std::set<std::string> rackB = rackServers(compiled, 1);
  std::size_t agent0Tasks = 0;
  std::size_t rescued = 0;
  for (const metrics::TaskOutcome& t : result.tasks) {
    if (t.index % 2 != 0) continue;  // submitted to agent1
    ++agent0Tasks;
    if (rackB.count(t.server) != 0) ++rescued;
  }
  ASSERT_GT(agent0Tasks, 0u);
  EXPECT_GE(rescued * 100, agent0Tasks * 30)
      << rescued << "/" << agent0Tasks << " of agent0's tasks ran on rack B";
}

TEST(MeshSim, TreeRootForwardsEveryRequestToTheLeaves) {
  const CompiledScenario compiled =
      compileScenario(scenario::findScenario("mesh/hierarchy_4agent"), 11);
  const metrics::RunResult result = runScenario(compiled, "msf");

  EXPECT_EQ(result.lostCount(), 0u);
  EXPECT_EQ(result.completedCount(), compiled.metatask.size());
  // The root owns no servers, so every single request takes exactly one hop.
  EXPECT_EQ(result.mesh.forwards, compiled.metatask.size());
  EXPECT_EQ(result.mesh.forwardDenies, 0u);
  // All three leaf racks should see work (the root spreads by load).
  std::set<std::string> used;
  for (const metrics::TaskOutcome& t : result.tasks) used.insert(t.server);
  for (std::size_t leaf = 1; leaf <= 3; ++leaf) {
    const std::set<std::string> rack = rackServers(compiled, leaf);
    bool hit = false;
    for (const std::string& s : rack) hit = hit || used.count(s) != 0;
    EXPECT_TRUE(hit) << "leaf " << leaf << " never received work";
  }
}

TEST(MeshSim, HopCountAccumulatesAcrossForwards) {
  // hop-limit 2 plus a tight overload threshold under a hard arrival burst:
  // the serverless root spends hop 1 on every request, and leaves - whose
  // loads keep shifting inside the forwarding-latency window - spend hop 2
  // on a less-loaded sibling. No request may take a third hop, so forwards
  // is bounded by tasks * hop-limit. A re-forward that resets the hop count
  // instead of accumulating it circulates requests past that bound (at this
  // burst rate the broken accounting overshoots it by a comfortable margin).
  scenario::ScenarioSpec spec = scenario::findScenario("mesh/hierarchy_4agent");
  spec.mesh.hopLimit = 2;
  spec.mesh.overloadThreshold = 1.0;
  spec.workload.count = 200;
  spec.arrival.meanInterarrival = 0.005;
  const CompiledScenario compiled = compileScenario(spec, 5);
  const metrics::RunResult result = runScenario(compiled, "msf");

  EXPECT_EQ(result.lostCount(), 0u);
  EXPECT_EQ(result.completedCount(), compiled.metatask.size());
  // Every request leaves the root once, and the burst forces second hops...
  EXPECT_GT(result.mesh.forwards, compiled.metatask.size());
  // ...but none may hop more than hop-limit times in total.
  EXPECT_LE(result.mesh.forwards, compiled.metatask.size() * spec.mesh.hopLimit);
}

TEST(MeshSim, WorkStealingDrainsTheParkedRootQueue) {
  const CompiledScenario compiled =
      compileScenario(scenario::findScenario("mesh/steal_tree"), 3);
  const metrics::RunResult result = runScenario(compiled, "msf");

  EXPECT_EQ(result.lostCount(), 0u);
  EXPECT_EQ(result.completedCount(), compiled.metatask.size());
  // Forwarding is off: the serverless root parks everything and the leaves
  // pull every task off its queue.
  EXPECT_EQ(result.mesh.forwards, 0u);
  EXPECT_EQ(result.mesh.parked, compiled.metatask.size());
  EXPECT_EQ(result.mesh.steals, compiled.metatask.size());
}

TEST(MeshSim, SameSeedIsBitIdentical) {
  const CompiledScenario compiled =
      compileScenario(scenario::findScenario("mesh/saturated_rescue"), 21);
  const metrics::RunResult a = runScenario(compiled, "msf");
  const metrics::RunResult b = runScenario(compiled, "msf");
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].server, b.tasks[i].server);
    EXPECT_DOUBLE_EQ(a.tasks[i].completion, b.tasks[i].completion);
  }
  EXPECT_EQ(a.mesh.forwards, b.mesh.forwards);
}

/// FNV-1a over every task's placement (index, server, completion bits,
/// status) and the four mesh counters: one number per run that moves when
/// any mesh placement or accounting does.
std::uint64_t placementDigest(const metrics::RunResult& result) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&](const void* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= static_cast<const unsigned char*>(data)[i];
      hash *= 1099511628211ULL;
    }
  };
  const auto mixWord = [&](std::uint64_t word) { mix(&word, sizeof word); };
  for (const metrics::TaskOutcome& t : result.tasks) {
    mixWord(t.index);
    mix(t.server.data(), t.server.size());
    mixWord(std::bit_cast<std::uint64_t>(t.completion));
    mixWord(static_cast<std::uint64_t>(t.status));
  }
  mixWord(result.mesh.forwards);
  mixWord(result.mesh.forwardDenies);
  mixWord(result.mesh.steals);
  mixWord(result.mesh.parked);
  return hash;
}

TEST(MeshSim, PlacementsArePinned) {
  // Recorded before the mesh bookkeeping moved into mesh::AgentNode: the
  // refactor must not move a single simulated placement or counter.
  struct Pin {
    const char* scenario;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"mesh/saturated_rescue", 3, 0x55a3fc13f53f8293ULL},
      {"mesh/saturated_rescue", 7, 0x3656ebc08afd9ad9ULL},
      {"mesh/saturated_rescue", 11, 0x9eac3272c2160778ULL},
      {"mesh/hierarchy_4agent", 3, 0xf6cce854464c38c4ULL},
      {"mesh/hierarchy_4agent", 7, 0xde3f0a5033eeb477ULL},
      {"mesh/hierarchy_4agent", 11, 0x5507da5f8949a9b1ULL},
      {"mesh/steal_tree", 3, 0x1f267db6c1a8f3fdULL},
      {"mesh/steal_tree", 7, 0x5a0376ef90d1103fULL},
      {"mesh/steal_tree", 11, 0x42a8ac355df3dce4ULL},
  };
  for (const Pin& pin : pins) {
    const CompiledScenario compiled =
        compileScenario(scenario::findScenario(pin.scenario), pin.seed);
    const metrics::RunResult result = runScenario(compiled, "msf");
    EXPECT_EQ(placementDigest(result), pin.digest)
        << pin.scenario << " seed " << pin.seed << ": 0x" << std::hex
        << placementDigest(result);
  }
}

TEST(MeshSim, SuiteAndScenarioRunnerRunTheSameMesh) {
  // exp::runOne (bench_suite, scenario_matrix) and scenario::runScenario
  // (scenario_runner, the live comparison) must run one system for a [mesh]
  // registry entry: the mesh, not a single agent owning every rack.
  for (const char* name :
       {"mesh/saturated_rescue", "mesh/hierarchy_4agent", "mesh/steal_tree"}) {
    const std::uint64_t seed = 7;
    const CompiledScenario compiled = compileScenario(scenario::findScenario(name), seed);
    const metrics::RunResult viaScenario = runScenario(compiled, "msf");
    const metrics::RunResult viaSuite =
        exp::runOne(exp::specFromScenario(name, seed), compiled.metatask, "msf",
                    compiled.system.faultTolerance, compiled.system.noiseSeed);

    ASSERT_EQ(viaSuite.tasks.size(), viaScenario.tasks.size()) << name;
    for (std::size_t i = 0; i < viaScenario.tasks.size(); ++i) {
      const metrics::TaskOutcome& a = viaSuite.tasks[i];
      const metrics::TaskOutcome& b = viaScenario.tasks[i];
      EXPECT_EQ(a.index, b.index) << name << " task " << i;
      EXPECT_EQ(a.server, b.server) << name << " task " << i;
      EXPECT_EQ(a.completion, b.completion) << name << " task " << i;
      EXPECT_EQ(a.status, b.status) << name << " task " << i;
    }
    EXPECT_EQ(viaSuite.mesh.forwards, viaScenario.mesh.forwards) << name;
    EXPECT_EQ(viaSuite.mesh.steals, viaScenario.mesh.steals) << name;
    EXPECT_EQ(viaSuite.mesh.forwardDenies, viaScenario.mesh.forwardDenies) << name;
  }
}

}  // namespace
}  // namespace casched
