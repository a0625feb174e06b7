// Tests for the three static frequency computations (core/freq_static.hpp):
// the positive half of Theorem 4.1 in each communication model.

#include "core/freq_static.hpp"

#include <gtest/gtest.h>

#include "core/minbase_agent.hpp"
#include "dynamics/schedules.hpp"
#include "fibration/minimum_base.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

namespace anonet {
namespace {

Rational r(std::int64_t num, std::int64_t den = 1) {
  return Rational(BigInt(num), BigInt(den));
}

// Runs the full distributed pipeline (min-base agents + per-model ratio
// rule) and returns the ν of each agent's census after `rounds`.
std::vector<std::optional<Frequency>> run_pipeline(
    const Digraph& g, const std::vector<std::int64_t>& inputs, CommModel model,
    int rounds) {
  auto registry = std::make_shared<ViewRegistry>();
  auto codec = std::make_shared<LabelCodec>();
  std::vector<MinBaseAgent> agents;
  for (std::int64_t input : inputs) {
    agents.emplace_back(registry, codec, input, model);
  }
  Executor<MinBaseAgent> exec(std::make_shared<StaticSchedule>(g),
                              std::move(agents), model);
  exec.run(rounds);
  std::vector<std::optional<Frequency>> result;
  for (const MinBaseAgent& agent : exec.agents()) {
    const auto census = static_census(agent.candidate(), *codec, model);
    if (census.has_value()) {
      result.push_back(frequency_from_ratios(census->values, census->sizes));
    } else {
      result.emplace_back();
    }
  }
  return result;
}

TEST(FreqStatic, FibreMatrixDefinition) {
  // Base: two vertices, edges 0->1 (x2), 1->0 (x1), self-loops; outdegrees
  // b = (3, 2).
  Digraph base(2);
  base.add_edge(0, 0);
  base.add_edge(1, 1);
  base.add_edge(0, 1);
  base.add_edge(0, 1);
  base.add_edge(1, 0);
  const RationalMatrix m = fibre_matrix(base, {3, 2});
  EXPECT_EQ(m.at(0, 0), r(1 - 3));  // d_00 - b_0
  EXPECT_EQ(m.at(0, 1), r(2));
  EXPECT_EQ(m.at(1, 0), r(1));
  EXPECT_EQ(m.at(1, 1), r(1 - 2));
}

TEST(FreqStatic, SymmetricRatiosOnKnownBase) {
  // Base of a star-like symmetric graph: hub class 0, leaf class 1 with
  // d_01 = 1 (each leaf hears hub once), d_10 = 3 (hub hears 3 leaves):
  // z_1 / z_0 = d_10 / d_01 = 3.
  Digraph base(2);
  base.add_edge(0, 0);
  base.add_edge(1, 1);
  base.add_edge(1, 0);
  base.add_edge(1, 0);
  base.add_edge(1, 0);
  base.add_edge(0, 1);
  const auto z = fibre_ratios_symmetric(base);
  ASSERT_TRUE(z.has_value());
  EXPECT_EQ((*z)[0], BigInt(1));
  EXPECT_EQ((*z)[1], BigInt(3));
}

TEST(FreqStatic, SymmetricRatiosRejectAsymmetricSupport) {
  Digraph base(2);
  base.add_edge(0, 0);
  base.add_edge(1, 1);
  base.add_edge(0, 1);  // no reverse edge
  EXPECT_FALSE(fibre_ratios_symmetric(base).has_value());
}

TEST(FreqStatic, PortRatiosAreAllOnes) {
  const auto z = fibre_ratios_ports(directed_ring(4));
  EXPECT_EQ(z, std::vector<BigInt>(4, BigInt(1)));
}

TEST(FreqStatic, FrequencyFromRatios) {
  const Frequency nu = frequency_from_ratios({5, 7, 5}, {BigInt(1), BigInt(2),
                                                         BigInt(3)});
  EXPECT_EQ(nu.at(5), r(4, 6) );
  EXPECT_EQ(nu.at(7), r(2, 6));
  EXPECT_THROW(frequency_from_ratios({1}, {BigInt(0)}), std::invalid_argument);
  EXPECT_THROW(frequency_from_ratios({1, 2}, {BigInt(1)}),
               std::invalid_argument);
}

// --- end-to-end per model ----------------------------------------------------

TEST(FreqStatic, OutdegreeAwarePipelineRecoversExactFrequency) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Digraph base = random_strongly_connected(3, 3, seed + 60);
    const LiftedGraph lift = random_lift(base, {3, 3, 3}, seed);
    ASSERT_TRUE(is_strongly_connected(lift.graph));
    std::vector<std::int64_t> inputs;
    for (Vertex v = 0; v < lift.graph.vertex_count(); ++v) {
      inputs.push_back(v % 3 == 0 ? 10 : 20);
    }
    const Frequency truth = Frequency::of(inputs);
    const int rounds =
        lift.graph.vertex_count() + 2 * diameter(lift.graph) + 2;
    const auto estimates =
        run_pipeline(lift.graph, inputs, CommModel::kOutdegreeAware, rounds);
    for (const auto& estimate : estimates) {
      ASSERT_TRUE(estimate.has_value()) << seed;
      EXPECT_EQ(*estimate, truth) << seed;
    }
  }
}

TEST(FreqStatic, SymmetricPipelineRecoversExactFrequency) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Digraph g = random_symmetric_connected(8, 4, seed + 5);
    const std::vector<std::int64_t> inputs{1, 1, 2, 2, 2, 3, 1, 2};
    const Frequency truth = Frequency::of(inputs);
    const int rounds = g.vertex_count() + 2 * diameter(g) + 2;
    const auto estimates =
        run_pipeline(g, inputs, CommModel::kSymmetricBroadcast, rounds);
    for (const auto& estimate : estimates) {
      ASSERT_TRUE(estimate.has_value()) << seed;
      EXPECT_EQ(*estimate, truth) << seed;
    }
  }
}

TEST(FreqStatic, OutputPortPipelineRecoversExactFrequency) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Digraph base = random_strongly_connected(4, 3, seed + 21);
    base.assign_output_ports();
    const LiftedGraph lift = random_covering_lift(base, 3, seed);
    ASSERT_TRUE(is_strongly_connected(lift.graph));
    std::vector<std::int64_t> inputs;
    for (Vertex v = 0; v < lift.graph.vertex_count(); ++v) {
      inputs.push_back(lift.projection[static_cast<std::size_t>(v)] % 2);
    }
    const Frequency truth = Frequency::of(inputs);
    const int rounds =
        lift.graph.vertex_count() + 2 * diameter(lift.graph) + 2;
    const auto estimates =
        run_pipeline(lift.graph, inputs, CommModel::kOutputPortAware, rounds);
    for (const auto& estimate : estimates) {
      ASSERT_TRUE(estimate.has_value()) << seed;
      EXPECT_EQ(*estimate, truth) << seed;
    }
  }
}

TEST(FreqStatic, SimpleBroadcastYieldsNoEstimate) {
  const Digraph g = bidirectional_ring(4);
  const auto estimates = run_pipeline(g, {1, 2, 1, 2},
                                      CommModel::kSimpleBroadcast, 12);
  for (const auto& estimate : estimates) {
    EXPECT_FALSE(estimate.has_value());
  }
}

TEST(FreqStatic, AverageOnRingIsImpossibleWithBroadcastButExactWithDegrees) {
  // The headline Table 1 contrast on one graph: R^6 with inputs of average
  // 3/2 — broadcast agents cannot output it, outdegree-aware agents can.
  const Digraph g = bidirectional_ring(6);
  const std::vector<std::int64_t> inputs{1, 2, 1, 2, 1, 2};
  const SymmetricFunction avg = average_function();
  const auto broadcast =
      run_pipeline(g, inputs, CommModel::kSimpleBroadcast, 20);
  EXPECT_FALSE(broadcast.front().has_value());
  const auto aware = run_pipeline(g, inputs, CommModel::kOutdegreeAware, 20);
  ASSERT_TRUE(aware.front().has_value());
  EXPECT_EQ(avg.eval_frequency(*aware.front()), r(3, 2));
}

TEST(FreqStatic, TorusCollapsesAndRecoversFrequency) {
  // A 2x4 torus with alternating stripes: highly symmetric topology, tiny
  // minimum base, exact frequency out of the symmetric pipeline.
  const Digraph g = torus(2, 4);
  const std::vector<std::int64_t> inputs{1, 2, 1, 2, 1, 2, 1, 2};
  const Frequency truth = Frequency::of(inputs);
  const int rounds = g.vertex_count() + 2 * diameter(g) + 2;
  const auto estimates =
      run_pipeline(g, inputs, CommModel::kSymmetricBroadcast, rounds);
  for (const auto& estimate : estimates) {
    ASSERT_TRUE(estimate.has_value());
    EXPECT_EQ(*estimate, truth);
  }
}

TEST(FreqStatic, DeBruijnViaOutdegreeAwareness) {
  // de Bruijn graphs are strongly connected and non-symmetric — only the
  // outdegree-aware rule applies among the directed options.
  const Digraph g = de_bruijn(2, 3);
  std::vector<std::int64_t> inputs;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    inputs.push_back(v % 2 == 0 ? 4 : 9);
  }
  const Frequency truth = Frequency::of(inputs);
  const int rounds = g.vertex_count() + 2 * diameter(g) + 2;
  const auto estimates =
      run_pipeline(g, inputs, CommModel::kOutdegreeAware, rounds);
  for (const auto& estimate : estimates) {
    ASSERT_TRUE(estimate.has_value());
    EXPECT_EQ(*estimate, truth);
  }
}

TEST(FreqStatic, HypercubeAllValuesDistinct) {
  // Prime graph (distinct values): the base is the graph itself and every
  // frequency is 1/n.
  const Digraph g = hypercube(3);
  std::vector<std::int64_t> inputs;
  for (Vertex v = 0; v < 8; ++v) inputs.push_back(100 + v);
  const auto estimates = run_pipeline(g, inputs,
                                      CommModel::kSymmetricBroadcast, 24);
  const Frequency truth = Frequency::of(inputs);
  for (const auto& estimate : estimates) {
    ASSERT_TRUE(estimate.has_value());
    EXPECT_EQ(*estimate, truth);
  }
}

}  // namespace
}  // namespace anonet
