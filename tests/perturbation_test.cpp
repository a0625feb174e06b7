// Tests for the perturbation subsystem (src/dynamics/perturbation.*): the
// StartSchedule / FaultPlan executor axes, the drop lottery, churn
// schedules, the realistic topology families, and the determinism of a
// perturbed run across thread counts.

#include "dynamics/perturbation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/gossip.hpp"
#include "dynamics/schedules.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"
#include "wire/meter.hpp"

namespace anonet {
namespace {

Executor<SetGossipAgent> make_gossip(DynamicGraphPtr schedule,
                                     const std::vector<std::int64_t>& inputs,
                                     int threads = 1) {
  std::vector<SetGossipAgent> agents;
  for (std::int64_t input : inputs) agents.emplace_back(input);
  return Executor<SetGossipAgent>(std::move(schedule), std::move(agents),
                                  CommModel::kSimpleBroadcast, 0x5eedull,
                                  threads);
}

TEST(StartScheduleShape, StaggeredAndStraggler) {
  const StartSchedule sync = StartSchedule::synchronous();
  EXPECT_TRUE(sync.trivial());
  EXPECT_TRUE(sync.awake(0, 1));

  const StartSchedule staggered = StartSchedule::staggered(4, 3);
  ASSERT_EQ(staggered.wake_rounds.size(), 4u);
  EXPECT_EQ(staggered.wake_rounds[0], 1);
  EXPECT_EQ(staggered.wake_rounds[3], 10);
  EXPECT_FALSE(staggered.trivial());
  EXPECT_TRUE(staggered.awake(0, 1));
  EXPECT_FALSE(staggered.awake(3, 9));
  EXPECT_TRUE(staggered.awake(3, 10));

  const StartSchedule straggler = StartSchedule::straggler(4, 25);
  EXPECT_TRUE(straggler.awake(2, 1));
  EXPECT_FALSE(straggler.awake(3, 24));
  EXPECT_TRUE(straggler.awake(3, 25));

  // All-ones wake rounds gate nothing.
  StartSchedule noop;
  noop.wake_rounds = {1, 1, 1};
  EXPECT_TRUE(noop.trivial());
}

TEST(FaultPlanShape, CrashAndDrop) {
  const FaultPlan none;
  EXPECT_TRUE(none.trivial());
  EXPECT_FALSE(none.crashed(0, 100));

  const FaultPlan crash = FaultPlan::crash_first_agent(3, 5);
  EXPECT_FALSE(crash.trivial());
  EXPECT_FALSE(crash.crashed(0, 4));
  EXPECT_TRUE(crash.crashed(0, 5));
  EXPECT_TRUE(crash.crashed(0, 500));
  EXPECT_FALSE(crash.crashed(1, 500));

  const FaultPlan drops = FaultPlan::drop(0.25, 42);
  EXPECT_FALSE(drops.trivial());
  EXPECT_FALSE(drops.crashed(0, 100));
}

TEST(DropLottery, ThresholdAndDeterminism) {
  EXPECT_EQ(drop_threshold(0.0), 0u);
  EXPECT_EQ(drop_threshold(-1.0), 0u);
  EXPECT_EQ(drop_threshold(1.0), ~0ull);
  EXPECT_EQ(drop_threshold(2.0), ~0ull);
  // 0.5 scales to the top half of the u64 range (within rounding).
  EXPECT_NEAR(static_cast<double>(drop_threshold(0.5)) /
                  static_cast<double>(~0ull),
              0.5, 1e-9);

  // The decision is a pure function of (seed, round, edge).
  const std::uint64_t half = drop_threshold(0.5);
  int dropped = 0;
  for (EdgeId e = 0; e < 1000; ++e) {
    const bool a = drops_message(7, 3, e, half);
    const bool b = drops_message(7, 3, e, half);
    EXPECT_EQ(a, b);
    if (a) ++dropped;
  }
  // Roughly half at rate 0.5 (loose 4-sigma-ish band).
  EXPECT_GT(dropped, 400);
  EXPECT_LT(dropped, 600);
  // Threshold 0 never drops, without even consulting the RNG.
  EXPECT_FALSE(drops_message(7, 3, 0, 0));
}

TEST(ExecutorPerturbation, SleepingAgentSendsNothingAndIgnoresDeliveries) {
  // Complete graph, distinct inputs; vertex 2 sleeps until round 3. While
  // asleep its value is invisible to the others and its own known set is
  // frozen; after it wakes, flooding completes as usual.
  const std::vector<std::int64_t> inputs = {10, 20, 30, 40};
  auto exec = make_gossip(
      std::make_shared<StaticSchedule>(complete_graph(4)), inputs);
  StartSchedule starts;
  starts.wake_rounds = {1, 1, 3, 1};
  exec.set_start_schedule(starts);

  exec.step();  // round 1
  EXPECT_EQ(exec.agent(2).known(), (std::set<std::int64_t>{30}));
  for (Vertex v : {Vertex{0}, Vertex{1}, Vertex{3}}) {
    EXPECT_EQ(exec.agent(v).known(), (std::set<std::int64_t>{10, 20, 40}))
        << "vertex " << v << " heard a sleeper";
  }

  exec.step();  // round 2: still asleep
  EXPECT_EQ(exec.agent(2).known(), (std::set<std::int64_t>{30}));

  exec.step();  // round 3: awake — sends and receives
  const std::set<std::int64_t> all(inputs.begin(), inputs.end());
  for (Vertex v = 0; v < 4; ++v) {
    EXPECT_EQ(exec.agent(v).known(), all) << "vertex " << v;
  }
}

TEST(ExecutorPerturbation, CrashedAgentFreezesAndItsValueIsLost) {
  // Vertex 0 crashes at round 1: it never sends, never receives, and its
  // input never reaches anyone (the negative half of gossip's missing
  // crash-stop tolerance claim).
  const std::vector<std::int64_t> inputs = {11, 22, 33, 44};
  auto exec = make_gossip(
      std::make_shared<StaticSchedule>(complete_graph(4)), inputs);
  exec.set_fault_plan(FaultPlan::crash_first_agent(4, 1));
  for (int t = 0; t < 4; ++t) exec.step();
  EXPECT_EQ(exec.agent(0).known(), (std::set<std::int64_t>{11}));
  for (Vertex v = 1; v < 4; ++v) {
    EXPECT_EQ(exec.agent(v).known(), (std::set<std::int64_t>{22, 33, 44}))
        << "vertex " << v;
  }
}

TEST(ExecutorPerturbation, DroppedMessagesAreMeteredThenDiscarded) {
  // Send-side metering happens before the receiver-side drop decision: a
  // lossy round 1 meters exactly the same wire bits as a clean one, while
  // delivering strictly fewer messages. Self-loops are immune, so every
  // agent still hears itself.
  const std::vector<std::int64_t> inputs = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto graph = complete_graph(8);

  auto clean = make_gossip(std::make_shared<StaticSchedule>(graph), inputs);
  clean.set_channel_policy(wire::channel_policy_from_bits(-1));
  clean.step();

  auto lossy = make_gossip(std::make_shared<StaticSchedule>(graph), inputs);
  lossy.set_channel_policy(wire::channel_policy_from_bits(-1));
  lossy.set_fault_plan(FaultPlan::drop(0.5, 99));
  lossy.step();

  EXPECT_EQ(lossy.bandwidth_meter().total_bits_sent(),
            clean.bandwidth_meter().total_bits_sent());
  EXPECT_LT(lossy.stats().messages_delivered,
            clean.stats().messages_delivered);
  for (Vertex v = 0; v < 8; ++v) {
    EXPECT_TRUE(lossy.agent(v).known().count(inputs[v]) == 1)
        << "self-loop dropped at " << v;
  }
}

TEST(ExecutorPerturbation, PerturbedRunIsThreadCountInvariant) {
  // The full stack at once — staggered starts, a crash, drops, churn —
  // must give bit-identical agent states and stats at 1 and 4 threads.
  const std::vector<std::int64_t> inputs = {5, 6, 7, 8, 9, 10, 11, 12};
  const auto run = [&](int threads) {
    auto exec = make_gossip(preferential_churn_schedule(8, 0xabcdull), inputs,
                            threads);
    exec.set_start_schedule(StartSchedule::staggered(8, 2));
    FaultPlan plan = FaultPlan::crash_first_agent(8, 6);
    plan.drop_rate = 0.3;
    plan.drop_seed = 0x7777ull;
    exec.set_fault_plan(plan);
    for (int t = 0; t < 20; ++t) exec.step();
    std::vector<std::set<std::int64_t>> known;
    for (Vertex v = 0; v < 8; ++v) known.push_back(exec.agent(v).known());
    return std::make_pair(known, exec.stats().messages_delivered);
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ChurnSchedule, EpochZeroIsFullAndAnchorNeverLeaves) {
  const auto inner = std::make_shared<StaticSchedule>(complete_graph(12));
  const ChurnSchedule churn(inner, 4, 0.5, 0x1234ull);
  // Rounds 1..4 are epoch 0: everyone present.
  for (int t = 1; t <= 4; ++t) {
    for (Vertex v = 0; v < 12; ++v) {
      EXPECT_TRUE(churn.present(v, t)) << "t=" << t << " v=" << v;
    }
    EXPECT_EQ(churn.at(t).edge_count(), inner->at(t).edge_count());
  }
  // Vertex 0 anchors every later epoch; at 50% churn somebody leaves.
  bool someone_left = false;
  for (int t = 5; t <= 40; ++t) {
    EXPECT_TRUE(churn.present(0, t));
    for (Vertex v = 1; v < 12; ++v) {
      someone_left = someone_left || !churn.present(v, t);
    }
  }
  EXPECT_TRUE(someone_left);
}

TEST(ChurnSchedule, AbsentVerticesKeepOnlySelfLoopsAndSymmetryHolds) {
  const auto inner = std::make_shared<StaticSchedule>(complete_graph(10));
  const ChurnSchedule churn(inner, 3, 0.4, 0x77ull);
  for (int t = 4; t <= 30; ++t) {
    const Digraph g = churn.at(t);
    EXPECT_TRUE(g.is_symmetric()) << "t=" << t;
    for (Vertex v = 0; v < 10; ++v) {
      EXPECT_TRUE(g.has_edge(v, v)) << "self-loop missing at t=" << t;
      if (churn.present(v, t)) continue;
      for (Vertex u = 0; u < 10; ++u) {
        if (u == v) continue;
        EXPECT_FALSE(g.has_edge(v, u)) << "absent " << v << " sends at " << t;
        EXPECT_FALSE(g.has_edge(u, v)) << "absent " << v << " hears at " << t;
      }
    }
  }
  // Membership is an epoch function: rounds of one epoch share it.
  for (Vertex v = 0; v < 10; ++v) {
    EXPECT_EQ(churn.present(v, 4), churn.present(v, 5));
    EXPECT_EQ(churn.present(v, 4), churn.present(v, 6));
  }
  // at(t) is a pure function of (construction args, t).
  const ChurnSchedule again(inner, 3, 0.4, 0x77ull);
  for (int t : {1, 5, 9, 23}) {
    EXPECT_EQ(churn.at(t).edges(), again.at(t).edges()) << "t=" << t;
  }
}

TEST(ChurnSchedule, RejectsBadArguments) {
  const auto inner = std::make_shared<StaticSchedule>(complete_graph(4));
  EXPECT_THROW(ChurnSchedule(nullptr, 4, 0.2, 1), std::invalid_argument);
  EXPECT_THROW(ChurnSchedule(inner, 0, 0.2, 1), std::invalid_argument);
  EXPECT_THROW(ChurnSchedule(inner, 4, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(ChurnSchedule(inner, 4, 1.0, 1), std::invalid_argument);
}

TEST(TopologyFamilies, PreferentialAttachmentIsConnectedSymmetricLooped) {
  for (std::uint64_t seed : {1ull, 2ull, 77ull}) {
    const Digraph g = preferential_attachment_graph(24, 2, seed);
    EXPECT_EQ(g.vertex_count(), 24);
    EXPECT_TRUE(g.is_symmetric());
    EXPECT_TRUE(is_strongly_connected(g));
    for (Vertex v = 0; v < 24; ++v) EXPECT_TRUE(g.has_edge(v, v));
    // Same seed, same graph.
    EXPECT_EQ(g.edges(), preferential_attachment_graph(24, 2, seed).edges());
  }
  EXPECT_THROW(preferential_attachment_graph(0, 2, 1), std::invalid_argument);
  EXPECT_THROW(preferential_attachment_graph(5, 0, 1), std::invalid_argument);
}

TEST(TopologyFamilies, RandomGeometricIsConnectedSymmetricLooped) {
  for (std::uint64_t seed : {3ull, 4ull, 99ull}) {
    // A radius below the connectivity threshold: the nearest-predecessor
    // backbone must still hold the graph together.
    const Digraph g = random_geometric_graph(24, 0.05, seed);
    EXPECT_EQ(g.vertex_count(), 24);
    EXPECT_TRUE(g.is_symmetric());
    EXPECT_TRUE(is_strongly_connected(g));
    for (Vertex v = 0; v < 24; ++v) EXPECT_TRUE(g.has_edge(v, v));
    EXPECT_EQ(g.edges(), random_geometric_graph(24, 0.05, seed).edges());
  }
  EXPECT_THROW(random_geometric_graph(0, 0.2, 1), std::invalid_argument);
  EXPECT_THROW(random_geometric_graph(5, -0.2, 1), std::invalid_argument);
}

TEST(TopologyFamilies, CampaignFactoriesComposeChurnOverRealTopologies) {
  for (auto factory : {preferential_churn_schedule, geometric_churn_schedule}) {
    const DynamicGraphPtr schedule = factory(16, 0x5eedull);
    ASSERT_NE(schedule, nullptr);
    EXPECT_EQ(schedule->vertex_count(), 16);
    // Determinism across separately constructed instances.
    const DynamicGraphPtr again = factory(16, 0x5eedull);
    for (int t : {1, 7, 19}) {
      EXPECT_EQ(schedule->at(t).edges(), again->at(t).edges()) << "t=" << t;
    }
    // Symmetric with self-loops every round (Metropolis-compatible).
    for (int t : {1, 9, 17}) {
      const Digraph g = schedule->at(t);
      EXPECT_TRUE(g.is_symmetric());
      for (Vertex v = 0; v < 16; ++v) EXPECT_TRUE(g.has_edge(v, v));
    }
  }
}

TEST(ExecutorPerturbation, SetterValidatesSizes) {
  auto exec = make_gossip(std::make_shared<StaticSchedule>(complete_graph(3)),
                          {1, 2, 3});
  StartSchedule wrong;
  wrong.wake_rounds = {1, 1};  // 2 entries for 3 agents
  EXPECT_THROW(exec.set_start_schedule(wrong), std::invalid_argument);
  FaultPlan plan;
  plan.crash_rounds = {0, 0, 0, 0};
  EXPECT_THROW(exec.set_fault_plan(plan), std::invalid_argument);
}

}  // namespace
}  // namespace anonet
