// Tests for channel policies and the bandwidth meter (wire/meter.hpp) as
// enforced by the Executor: metering accuracy against hand-measured and
// rendered messages, the bounded-channel failure contract, and thread-count
// invariance of the metered series (the "Determin" suites run under TSan in
// scripts/check.sh).

#include "wire/meter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/exact_pushsum.hpp"
#include "core/gossip.hpp"
#include "core/history_tree.hpp"
#include "core/metropolis.hpp"
#include "core/minbase_agent.hpp"
#include "core/pushsum.hpp"
#include "core/uniform_consensus.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

namespace anonet {
namespace {

TEST(Bandwidth, ChannelPolicyFromBitsConvention) {
  EXPECT_EQ(wire::channel_policy_from_bits(0).mode,
            wire::ChannelMode::kUnbounded);
  EXPECT_EQ(wire::channel_policy_from_bits(-1).mode,
            wire::ChannelMode::kMetered);
  const wire::ChannelPolicy bounded = wire::channel_policy_from_bits(96);
  EXPECT_EQ(bounded.mode, wire::ChannelMode::kBounded);
  EXPECT_EQ(bounded.budget_bits, 96);
  EXPECT_THROW((void)wire::channel_policy_from_bits(-2),
               std::invalid_argument);
}

TEST(Bandwidth, MeterIsOffByDefault) {
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(4));
  std::vector<SetGossipAgent> agents;
  for (int i = 0; i < 4; ++i) agents.emplace_back(i);
  Executor<SetGossipAgent> exec(net, std::move(agents),
                                CommModel::kSimpleBroadcast);
  exec.run(3);
  EXPECT_EQ(exec.channel_policy().mode, wire::ChannelMode::kUnbounded);
  EXPECT_EQ(exec.bandwidth_meter().rounds(), 0);
  EXPECT_EQ(exec.bandwidth_meter().total_bits_sent(), 0);
}

TEST(Bandwidth, MeteredBitsMatchHandMeasuredMessages) {
  // n = 2 bidirectional ring: each sender covers two out-edges (self-loop
  // plus the neighbor), so round-1 traffic is exactly 2x each initial
  // known-set snapshot.
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(2));
  std::vector<SetGossipAgent> agents;
  agents.emplace_back(3);
  agents.emplace_back(-7);
  Executor<SetGossipAgent> exec(net, std::move(agents),
                                CommModel::kSimpleBroadcast);
  exec.set_channel_policy(wire::ChannelPolicy::metered());
  exec.step();
  SetGossipAgent::Message first{{3}};
  SetGossipAgent::Message second{{-7}};
  const std::int64_t expected =
      2 * wire::encoded_bits(first) + 2 * wire::encoded_bits(second);
  const wire::RoundBandwidth& round = exec.bandwidth_meter().round(1);
  EXPECT_EQ(round.bits_sent, expected);
  EXPECT_EQ(round.bits_received, expected);
  EXPECT_EQ(round.max_message_bits,
            std::max(wire::encoded_bits(first), wire::encoded_bits(second)));
  // Round 2: both know {-7, 3}; two values, same message from both.
  exec.step();
  SetGossipAgent::Message merged{{-7, 3}};
  EXPECT_EQ(exec.bandwidth_meter().round(2).bits_sent,
            4 * wire::encoded_bits(merged));
  EXPECT_EQ(exec.bandwidth_meter().total_bits_sent(),
            expected + 4 * wire::encoded_bits(merged));
}

TEST(Bandwidth, SentEqualsReceivedEveryRound) {
  auto net = std::make_shared<RandomStronglyConnectedSchedule>(12, 8, 21);
  std::vector<FrequencyPushSumAgent> agents;
  for (Vertex v = 0; v < 12; ++v) agents.emplace_back(v % 4);
  Executor<FrequencyPushSumAgent> exec(net, std::move(agents),
                                       CommModel::kOutdegreeAware);
  exec.set_channel_policy(wire::ChannelPolicy::metered());
  exec.run(6);
  const wire::BandwidthMeter& meter = exec.bandwidth_meter();
  ASSERT_EQ(meter.rounds(), 6);
  std::int64_t sent = 0, received = 0;
  for (const wire::RoundBandwidth& round : meter.per_round()) {
    EXPECT_GT(round.bits_sent, 0);
    EXPECT_EQ(round.bits_sent, round.bits_received);
    EXPECT_GT(round.max_message_bits, 0);
    EXPECT_LE(round.max_message_bits, round.bits_sent);
    sent += round.bits_sent;
    received += round.bits_received;
  }
  EXPECT_EQ(meter.total_bits_sent(), sent);
  EXPECT_EQ(meter.total_bits_received(), received);
  EXPECT_THROW((void)meter.round(0), std::out_of_range);
  EXPECT_THROW((void)meter.round(7), std::out_of_range);
}

TEST(Bandwidth, BoundedChannelThrowsBetweenSendAndDelivery) {
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(3));
  std::vector<SetGossipAgent> agents;
  for (int i = 0; i < 3; ++i) agents.emplace_back(1000 * i);
  Executor<SetGossipAgent> exec(net, std::move(agents),
                                CommModel::kSimpleBroadcast);
  // Every round-1 message carries one value: count + first key. Budget one
  // bit under the largest message, so round 1 itself trips the channel.
  SetGossipAgent::Message largest{{2000}};
  const std::int64_t budget = wire::encoded_bits(largest) - 1;
  exec.set_channel_policy(wire::ChannelPolicy::bounded(budget));
  try {
    exec.step();
    FAIL() << "expected wire::BandwidthExceeded";
  } catch (const wire::BandwidthExceeded& e) {
    EXPECT_EQ(e.rounds_run(), 0);
    EXPECT_EQ(e.budget_bits(), budget);
    EXPECT_EQ(e.message_bits(), wire::encoded_bits(largest));
  }
  // The round did not happen: no transition, no meter entry, and the
  // agents' known sets are still their singletons.
  EXPECT_EQ(exec.round(), 0);
  EXPECT_EQ(exec.stats().messages_delivered, 0);
  EXPECT_EQ(exec.bandwidth_meter().rounds(), 0);
  EXPECT_EQ(exec.agent(0).known().size(), 1u);
}

TEST(Bandwidth, BoundedChannelAdmitsFittingMessages) {
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(3));
  std::vector<SetGossipAgent> agents;
  for (int i = 0; i < 3; ++i) agents.emplace_back(i);
  Executor<SetGossipAgent> exec(net, std::move(agents),
                                CommModel::kSimpleBroadcast);
  // Generous budget: the channel behaves as a meter that also checks.
  exec.set_channel_policy(wire::ChannelPolicy::bounded(1 << 16));
  EXPECT_NO_THROW(exec.run(4));
  EXPECT_EQ(exec.bandwidth_meter().rounds(), 4);
  EXPECT_EQ(exec.channel_policy().mode, wire::ChannelMode::kBounded);
}

TEST(Bandwidth, BoundedPolicyValidatesItsBudget) {
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(3));
  std::vector<SetGossipAgent> agents;
  for (int i = 0; i < 3; ++i) agents.emplace_back(i);
  Executor<SetGossipAgent> exec(net, std::move(agents),
                                CommModel::kSimpleBroadcast);
  EXPECT_THROW(exec.set_channel_policy(wire::ChannelPolicy::bounded(0)),
               std::invalid_argument);
  EXPECT_THROW(exec.set_channel_policy(wire::ChannelPolicy::bounded(-4)),
               std::invalid_argument);
}

// --- thread-count invariance (runs under TSan via scripts/check.sh) ----------

TEST(BandwidthDeterminism, MeteredSeriesIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    auto net = std::make_shared<RandomStronglyConnectedSchedule>(23, 14, 5);
    std::vector<FrequencyPushSumAgent> agents;
    for (Vertex v = 0; v < 23; ++v) agents.emplace_back(v % 5);
    Executor<FrequencyPushSumAgent> exec(net, std::move(agents),
                                         CommModel::kOutdegreeAware, 0x5eedull,
                                         threads);
    exec.set_channel_policy(wire::ChannelPolicy::metered());
    exec.run(8);
    return exec;
  };
  const auto reference = run(1);
  for (int threads : {2, 4}) {
    const auto parallel = run(threads);
    ASSERT_EQ(parallel.bandwidth_meter().rounds(),
              reference.bandwidth_meter().rounds());
    for (std::int64_t t = 1; t <= reference.bandwidth_meter().rounds(); ++t) {
      const wire::RoundBandwidth& a = reference.bandwidth_meter().round(t);
      const wire::RoundBandwidth& b = parallel.bandwidth_meter().round(t);
      EXPECT_EQ(a.bits_sent, b.bits_sent) << "round " << t;
      EXPECT_EQ(a.bits_received, b.bits_received) << "round " << t;
      EXPECT_EQ(a.max_message_bits, b.max_message_bits) << "round " << t;
    }
    EXPECT_EQ(parallel.bandwidth_meter().total_bits_sent(),
              reference.bandwidth_meter().total_bits_sent());
    EXPECT_EQ(parallel.bandwidth_meter().max_message_bits(),
              reference.bandwidth_meter().max_message_bits());
  }
}

// The slow path kept as the oracle for the meter's counting sink: round
// t's bits_sent and max_message_bits recomputed by rendering each sender's
// message into a BitWriter. The agents are snapshotted before each step
// (send() may update a sender's own bookkeeping). An isotropic message is
// charged once per out-edge, self-loop included; a port-aware model sends
// one message per out-edge.
template <typename Agent>
void expect_metered_bits_are_rendered_bits(DynamicGraphPtr net,
                                           std::vector<Agent> agents,
                                           CommModel model, int threads) {
  Executor<Agent> exec(net, std::move(agents), model, 0x5eedull, threads);
  exec.set_channel_policy(wire::ChannelPolicy::metered());
  const auto rendered = [](const typename Agent::Message& m) {
    wire::BitWriter w;
    wire::encode(m, w);
    return w.bit_size();
  };
  for (int t = 1; t <= 4; ++t) {
    const std::vector<Agent> before = exec.agents();
    const Digraph g = net->at(t);
    wire::RoundBandwidth expected;
    const auto charge = [&](std::int64_t bits, int copies) {
      expected.bits_sent += bits * copies;
      expected.max_message_bits = std::max(expected.max_message_bits, bits);
    };
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      const Agent& agent = before[static_cast<std::size_t>(v)];
      const auto out = g.out_edges(v);
      const int d = static_cast<int>(out.size());
      if (model == CommModel::kOutputPortAware) {
        for (EdgeId id : out) {
          charge(rendered(agent.send(d, static_cast<int>(g.edge(id).color))),
                 1);
        }
      } else {
        charge(rendered(agent.send(sees_outdegree(model) ? d : 0, 0)), d);
      }
    }
    exec.step();
    const wire::RoundBandwidth& got = exec.bandwidth_meter().round(t);
    EXPECT_GT(got.bits_sent, 0);
    EXPECT_EQ(got.bits_sent, expected.bits_sent)
        << "round " << t << ", " << threads << " threads";
    EXPECT_EQ(got.bits_received, expected.bits_sent) << "round " << t;
    EXPECT_EQ(got.max_message_bits, expected.max_message_bits)
        << "round " << t << ", " << threads << " threads";
  }
}

template <typename Agent, typename Make>
std::vector<Agent> agents_of(Vertex n, Make make) {
  std::vector<Agent> agents;
  for (Vertex v = 0; v < n; ++v) agents.push_back(make(v));
  return agents;
}

TEST(BandwidthDeterminism, MeteredBitsAreRenderedBitsForEveryCoreAgent) {
  static constexpr Vertex n = 7;
  const auto strong = [] {
    return std::make_shared<RandomStronglyConnectedSchedule>(n, 5, 31);
  };
  const auto symmetric = [] {
    return std::make_shared<RandomSymmetricSchedule>(n, 4, 32);
  };
  for (int threads : {1, 4}) {
    expect_metered_bits_are_rendered_bits(
        strong(),
        agents_of<SetGossipAgent>(
            n, [](Vertex v) { return SetGossipAgent(3 * v - 5); }),
        CommModel::kSimpleBroadcast, threads);
    expect_metered_bits_are_rendered_bits(
        strong(),
        agents_of<PushSumAgent>(
            n, [](Vertex v) { return PushSumAgent(v + 0.5, 1.0); }),
        CommModel::kOutdegreeAware, threads);
    expect_metered_bits_are_rendered_bits(
        strong(), agents_of<FrequencyPushSumAgent>(n, [](Vertex v) {
          return FrequencyPushSumAgent(v % 3);
        }),
        CommModel::kOutdegreeAware, threads);
    expect_metered_bits_are_rendered_bits(
        strong(), agents_of<ExactPushSumAgent>(n, [](Vertex v) {
          return ExactPushSumAgent(Rational(v), Rational(1));
        }),
        CommModel::kOutdegreeAware, threads);
    expect_metered_bits_are_rendered_bits(
        symmetric(),
        agents_of<MetropolisAgent>(
            n, [](Vertex v) { return MetropolisAgent(0.25 * v); }),
        CommModel::kOutdegreeAware, threads);
    expect_metered_bits_are_rendered_bits(
        symmetric(), agents_of<FrequencyMetropolisAgent>(n, [](Vertex v) {
          return FrequencyMetropolisAgent(v % 4);
        }),
        CommModel::kOutdegreeAware, threads);
    expect_metered_bits_are_rendered_bits(
        symmetric(), agents_of<UniformWeightAgent>(n, [](Vertex v) {
          return UniformWeightAgent(v - 2.0, n);
        }),
        CommModel::kSymmetricBroadcast, threads);
    expect_metered_bits_are_rendered_bits(
        symmetric(), agents_of<FrequencyUniformAgent>(n, [](Vertex v) {
          return FrequencyUniformAgent(v % 2, n);
        }),
        CommModel::kSymmetricBroadcast, threads);
  }
  // The two interning agents share one registry and are not kParallelSafe.
  auto registry = std::make_shared<ViewRegistry>();
  auto codec = std::make_shared<LabelCodec>();
  expect_metered_bits_are_rendered_bits(
      symmetric(), agents_of<HistoryFrequencyAgent>(n, [&](Vertex v) {
        return HistoryFrequencyAgent(registry, codec, v % 3);
      }),
      CommModel::kSymmetricBroadcast, 1);
  Digraph ported = random_strongly_connected(n, 5, 33);
  ported.assign_output_ports();
  expect_metered_bits_are_rendered_bits(
      std::make_shared<StaticSchedule>(ported),
      agents_of<MinBaseAgent>(n, [&](Vertex v) {
        return MinBaseAgent(registry, codec, v % 2,
                            CommModel::kOutputPortAware);
      }),
      CommModel::kOutputPortAware, 1);
}

TEST(BandwidthDeterminism, BoundedOverflowDetectedAtAnyThreadCount) {
  for (int threads : {1, 3}) {
    auto net = std::make_shared<StaticSchedule>(complete_graph(6));
    std::vector<SetGossipAgent> agents;
    for (int i = 0; i < 6; ++i) agents.emplace_back(i * 77);
    Executor<SetGossipAgent> exec(net, std::move(agents),
                                  CommModel::kSimpleBroadcast, 0x5eedull,
                                  threads);
    // Round 1 fits (singleton sets); round 2's merged sets do not.
    exec.set_channel_policy(wire::ChannelPolicy::bounded(40));
    EXPECT_NO_THROW(exec.step()) << threads;
    EXPECT_THROW(exec.step(), wire::BandwidthExceeded) << threads;
    EXPECT_EQ(exec.round(), 1) << threads;
    EXPECT_EQ(exec.bandwidth_meter().rounds(), 1) << threads;
  }
}

}  // namespace
}  // namespace anonet
