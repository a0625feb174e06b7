// Tests for the capability-traits layer (runtime/capabilities.hpp) and its
// enforcement in the Executor: the machine-checked Table 1. The *forbidden*
// pairings that must fail to compile live under tests/compile_fail/ (they
// cannot appear here by definition); this file covers the admissibility
// predicate itself, the runtime throw for dynamically chosen models, the
// compile-time ModelTag path for legal pairings, and the per-round
// symmetric-network verification that kSymmetricOnly buys.

#include "runtime/capabilities.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/gossip.hpp"
#include "core/history_tree.hpp"
#include "core/metropolis.hpp"
#include "core/pushsum.hpp"
#include "core/uniform_consensus.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

namespace anonet {
namespace {

// --- the admissibility predicate (Table 1) -----------------------------------

TEST(Capabilities, ModelProvidesFollowsTableOne) {
  constexpr auto out = ModelCapabilities::kNeedsOutdegree;
  constexpr auto ports = ModelCapabilities::kNeedsOutputPorts;
  // Outdegree consumers: only the outdegree-seeing models qualify.
  EXPECT_FALSE(model_provides(CommModel::kSimpleBroadcast, out));
  EXPECT_FALSE(model_provides(CommModel::kSymmetricBroadcast, out));
  EXPECT_TRUE(model_provides(CommModel::kOutdegreeAware, out));
  EXPECT_TRUE(model_provides(CommModel::kOutputPortAware, out));
  // Port addressers: only the one non-isotropic model qualifies.
  EXPECT_FALSE(model_provides(CommModel::kSimpleBroadcast, ports));
  EXPECT_FALSE(model_provides(CommModel::kOutdegreeAware, ports));
  EXPECT_TRUE(model_provides(CommModel::kOutputPortAware, ports));
  // No demands: every model qualifies.
  for (CommModel m : {CommModel::kSimpleBroadcast, CommModel::kOutdegreeAware,
                      CommModel::kSymmetricBroadcast,
                      CommModel::kOutputPortAware}) {
    EXPECT_TRUE(model_provides(m, ModelCapabilities::kNone));
    EXPECT_TRUE(model_provides(m, ModelCapabilities::kModelPolymorphic));
    // kSymmetricOnly restricts the network class, never the model.
    EXPECT_TRUE(model_provides(m, ModelCapabilities::kSymmetricOnly));
  }
  // Polymorphic overrides other declared bits (MinBaseAgent's contract).
  EXPECT_TRUE(model_provides(
      CommModel::kSimpleBroadcast,
      out | ports | ModelCapabilities::kModelPolymorphic));
}

TEST(Capabilities, NeedsSymmetricModelAdmitsOnlySymmetricBroadcast) {
  constexpr auto needs = ModelCapabilities::kNeedsSymmetricModel;
  // Unlike kSymmetricOnly (a network-class restriction every model can
  // carry), kNeedsSymmetricModel restricts the model itself: only
  // kSymmetricBroadcast certifies symmetry at delivery time.
  EXPECT_TRUE(model_provides(CommModel::kSymmetricBroadcast, needs));
  EXPECT_FALSE(model_provides(CommModel::kSimpleBroadcast, needs));
  EXPECT_FALSE(model_provides(CommModel::kOutdegreeAware, needs));
  EXPECT_FALSE(model_provides(CommModel::kOutputPortAware, needs));
  // The combination the history tree declares.
  constexpr auto both = ModelCapabilities::kSymmetricOnly | needs;
  EXPECT_TRUE(model_provides(CommModel::kSymmetricBroadcast, both));
  EXPECT_FALSE(model_provides(CommModel::kOutdegreeAware, both));
  // Polymorphic still overrides, as for every other bit.
  EXPECT_TRUE(model_provides(
      CommModel::kOutdegreeAware,
      needs | ModelCapabilities::kModelPolymorphic));
}

TEST(Capabilities, CoreAgentDeclarationsMatchTheirTableCells) {
  static_assert(agent_capabilities<PushSumAgent>() ==
                ModelCapabilities::kNeedsOutdegree);
  static_assert(agent_capabilities<SetGossipAgent>() ==
                ModelCapabilities::kNone);
  static_assert(has_capability(agent_capabilities<MetropolisAgent>(),
                               ModelCapabilities::kNeedsOutdegree));
  static_assert(has_capability(agent_capabilities<MetropolisAgent>(),
                               ModelCapabilities::kSymmetricOnly));
  static_assert(agent_capabilities<UniformWeightAgent>() ==
                ModelCapabilities::kSymmetricOnly);
  SUCCEED();
}

// --- runtime enforcement (dynamically chosen model) --------------------------

TEST(Capabilities, ExecutorRejectsOutdegreeAgentUnderBroadcastModels) {
  for (CommModel hidden : {CommModel::kSimpleBroadcast,
                           CommModel::kSymmetricBroadcast}) {
    auto net = std::make_shared<StaticSchedule>(bidirectional_ring(4));
    std::vector<PushSumAgent> agents(4, PushSumAgent(1.0, 1.0));
    EXPECT_THROW(Executor<PushSumAgent>(net, std::move(agents), hidden),
                 std::invalid_argument)
        << to_string(hidden);
  }
}

TEST(Capabilities, ExecutorAcceptsOutdegreeAgentUnderOutdegreeAware) {
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(4));
  std::vector<PushSumAgent> agents(4, PushSumAgent(1.0, 1.0));
  Executor<PushSumAgent> exec(net, std::move(agents),
                              CommModel::kOutdegreeAware);
  EXPECT_NO_THROW(exec.run(3));
}

TEST(Capabilities, UndeclaredAgentIsTreatedAsPolymorphic) {
  // Downstream/test agents that predate the annotation scheme keep working
  // under every model; the lint, not the type system, demands annotations
  // for library code.
  struct LegacyProbeAgent {
    struct Message {
      int x = 0;
    };
    [[nodiscard]] Message send(int, int) const { return {}; }
    void receive(Inbox<Message> /*messages*/) {}
  };
  static_assert(agent_capabilities<LegacyProbeAgent>() ==
                ModelCapabilities::kModelPolymorphic);
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(3));
  std::vector<LegacyProbeAgent> agents(3);
  Executor<LegacyProbeAgent> exec(net, std::move(agents),
                                  CommModel::kSimpleBroadcast);
  EXPECT_NO_THROW(exec.step());
}

// --- compile-time ModelTag path ----------------------------------------------

TEST(Capabilities, ModelTagConstructorRunsLegalPairings) {
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(4));
  std::vector<PushSumAgent> agents(4, PushSumAgent(2.0, 1.0));
  // under<...> resolves the model at compile time; the forbidden variants
  // of this construction are the compile_fail.* CTest entries.
  Executor<PushSumAgent> exec(net, std::move(agents),
                              under<CommModel::kOutdegreeAware>);
  exec.run(5);
  EXPECT_EQ(exec.round(), 5);
  EXPECT_EQ(exec.model(), CommModel::kOutdegreeAware);

  std::vector<SetGossipAgent> gossips;
  for (int i = 0; i < 4; ++i) gossips.emplace_back(i);
  Executor<SetGossipAgent> simple(net, std::move(gossips),
                                  under<CommModel::kSimpleBroadcast>);
  EXPECT_NO_THROW(simple.step());
}

// --- kSymmetricOnly: per-round network-class verification --------------------

TEST(Capabilities, SymmetricOnlyAgentRejectsAsymmetricRoundGraph) {
  // Metropolis runs under kOutdegreeAware — a model with no symmetry check
  // of its own — but declares kSymmetricOnly; the executor must verify the
  // round graph anyway instead of silently losing sum preservation.
  Digraph ring = directed_ring(4);
  ring.ensure_self_loops();
  auto net = std::make_shared<StaticSchedule>(ring);
  std::vector<MetropolisAgent> agents(4, MetropolisAgent(1.0));
  Executor<MetropolisAgent> exec(net, std::move(agents),
                                 CommModel::kOutdegreeAware);
  EXPECT_THROW(exec.step(), std::logic_error);
}

TEST(Capabilities, SymmetricOnlyAgentRunsOnSymmetricRoundGraphs) {
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(4));
  std::vector<MetropolisAgent> agents(4, MetropolisAgent(1.0));
  Executor<MetropolisAgent> exec(net, std::move(agents),
                                 CommModel::kOutdegreeAware);
  EXPECT_NO_THROW(exec.run(10));
}

// --- diagnosis strings -------------------------------------------------------

TEST(Capabilities, MismatchDescriptionNamesCapabilityAndModel) {
  const std::string msg = describe_model_mismatch(
      CommModel::kSimpleBroadcast, ModelCapabilities::kNeedsOutdegree);
  EXPECT_NE(msg.find("kNeedsOutdegree"), std::string::npos);
  EXPECT_NE(msg.find("hides"), std::string::npos);
  const std::string port_msg = describe_model_mismatch(
      CommModel::kOutdegreeAware, ModelCapabilities::kNeedsOutputPorts);
  EXPECT_NE(port_msg.find("kNeedsOutputPorts"), std::string::npos);
  const std::string sym_msg = describe_model_mismatch(
      CommModel::kOutdegreeAware, ModelCapabilities::kNeedsSymmetricModel);
  EXPECT_NE(sym_msg.find("kNeedsSymmetricModel"), std::string::npos);
  EXPECT_NE(sym_msg.find("symmetric broadcast"), std::string::npos);
}

TEST(Capabilities, HistoryTreeAgentDeclaresSymmetricModelRequirement) {
  // HistoryFrequencyAgent is the one agent whose correctness argument needs
  // the model (not just the schedule) to certify symmetry; see
  // core/history_tree.hpp. The forbidden pairing is the
  // compile_fail.symmetric_model_agent_under_outdegree_aware CTest entry.
  static_assert(has_capability(agent_capabilities<HistoryFrequencyAgent>(),
                               ModelCapabilities::kNeedsSymmetricModel));
  static_assert(has_capability(agent_capabilities<HistoryFrequencyAgent>(),
                               ModelCapabilities::kSymmetricOnly));
  SUCCEED();
}

}  // namespace
}  // namespace anonet
