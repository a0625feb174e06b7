// Tests for the graph generators, in particular that lifts really are
// fibrations (the property every Section 4.1 argument rests on).

#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <random>

#include "fibration/fibration.hpp"
#include "graph/analysis.hpp"

namespace anonet {
namespace {

TEST(Generators, DirectedRingShape) {
  const Digraph g = directed_ring(5);
  EXPECT_TRUE(g.has_all_self_loops());
  EXPECT_TRUE(is_strongly_connected(g));
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_EQ(g.outdegree(v), 2);  // self + successor
    EXPECT_TRUE(g.has_edge(v, (v + 1) % 5));
  }
  EXPECT_FALSE(g.is_symmetric());
}

TEST(Generators, BidirectionalRingIsSymmetric) {
  for (Vertex n : {1, 2, 3, 4, 9}) {
    const Digraph g = bidirectional_ring(n);
    EXPECT_TRUE(g.has_all_self_loops()) << n;
    EXPECT_TRUE(g.is_symmetric()) << n;
    EXPECT_TRUE(is_strongly_connected(g)) << n;
  }
  EXPECT_EQ(bidirectional_ring(4).outdegree(0), 3);  // self + two neighbors
}

TEST(Generators, CompleteGraph) {
  const Digraph g = complete_graph(4);
  EXPECT_EQ(g.edge_count(), 16);
  EXPECT_TRUE(is_complete_with_self_loops(g));
  EXPECT_EQ(diameter(g), 1);
}

TEST(Generators, TorusIsSymmetricAndConnected) {
  const Digraph g = torus(3, 4);
  EXPECT_EQ(g.vertex_count(), 12);
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_TRUE(is_strongly_connected(g));
  EXPECT_TRUE(g.has_all_self_loops());
}

TEST(Generators, Hypercube) {
  const Digraph g = hypercube(3);
  EXPECT_EQ(g.vertex_count(), 8);
  EXPECT_TRUE(g.is_symmetric());
  for (Vertex v = 0; v < 8; ++v) EXPECT_EQ(g.outdegree(v), 4);  // self + 3
  EXPECT_EQ(diameter(g), 3);
}

TEST(Generators, DeBruijnIsStronglyConnectedAsymmetric) {
  const Digraph g = de_bruijn(2, 3);
  EXPECT_EQ(g.vertex_count(), 8);
  EXPECT_TRUE(is_strongly_connected(g));
  EXPECT_TRUE(g.has_all_self_loops());
  EXPECT_FALSE(g.is_symmetric());
}

TEST(Generators, RandomStronglyConnectedAlwaysIs) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Digraph g = random_strongly_connected(9, 6, seed);
    EXPECT_TRUE(is_strongly_connected(g)) << seed;
    EXPECT_TRUE(g.has_all_self_loops()) << seed;
  }
}

TEST(Generators, RandomSymmetricConnectedAlwaysIs) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Digraph g = random_symmetric_connected(9, 4, seed);
    EXPECT_TRUE(is_strongly_connected(g)) << seed;
    EXPECT_TRUE(g.is_symmetric()) << seed;
    EXPECT_TRUE(g.has_all_self_loops()) << seed;
  }
}

// random_symmetric_connected as it was before it stopped probing the
// half-built graph with has_edge: the reference for its edge list.
Digraph reference_random_symmetric_connected(Vertex n, int extra_pairs,
                                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Digraph g(n);
  for (Vertex v = 0; v < n; ++v) g.add_edge(v, v);
  for (Vertex v = 1; v < n; ++v) {
    std::uniform_int_distribution<Vertex> pick(0, v - 1);
    Vertex u = pick(rng);
    g.add_edge(u, v);
    g.add_edge(v, u);
  }
  std::uniform_int_distribution<Vertex> pick(0, n - 1);
  for (int i = 0; i < extra_pairs; ++i) {
    Vertex a = pick(rng);
    Vertex b = pick(rng);
    if (a != b && !g.has_edge(a, b)) {
      g.add_edge(a, b);
      g.add_edge(b, a);
    }
  }
  return g;
}

TEST(Generators, RandomSymmetricConnectedMatchesTheHasEdgeReference) {
  // 400 pairs on a few vertices draw mostly duplicates and tree pairs, so
  // every rejection path is exercised.
  for (Vertex n : {1, 2, 3, 5, 8, 17, 64, 300}) {
    for (int extra : {0, 1, 3, 10, 50, 400}) {
      for (std::uint64_t seed = 0; seed < 40; ++seed) {
        ASSERT_EQ(random_symmetric_connected(n, extra, seed).edges(),
                  reference_random_symmetric_connected(n, extra, seed).edges())
            << "n=" << n << " extra=" << extra << " seed=" << seed;
      }
    }
  }
}

TEST(Generators, RandomLiftIsAFibration) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const Digraph base = random_strongly_connected(4, 3, seed + 100);
    const std::vector<int> fibre_sizes{2, 3, 1, 2};
    const LiftedGraph lift = random_lift(base, fibre_sizes, seed);
    EXPECT_EQ(lift.graph.vertex_count(), 8);
    EXPECT_TRUE(is_fibration(lift.graph, base, lift.projection)) << seed;
    EXPECT_TRUE(lift.graph.has_all_self_loops()) << seed;
  }
}

TEST(Generators, RandomLiftFibreSizes) {
  const Digraph base = directed_ring(3);
  const LiftedGraph lift = random_lift(base, {2, 2, 2}, 5);
  EXPECT_EQ(fibre_sizes(lift.projection, 3), (std::vector<int>{2, 2, 2}));
}

TEST(Generators, RandomCoveringLiftIsAFibrationWithEqualFibres) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Digraph base = random_strongly_connected(4, 4, seed + 7);
    base.assign_output_ports();
    const LiftedGraph lift = random_covering_lift(base, 3, seed);
    EXPECT_TRUE(is_fibration(lift.graph, base, lift.projection)) << seed;
    // Covering: out-neighborhoods biject, so the lifted port labels remain a
    // valid local output labelling.
    for (Vertex v = 0; v < lift.graph.vertex_count(); ++v) {
      std::vector<int> ports;
      for (EdgeId id : lift.graph.out_edges(v)) {
        ports.push_back(static_cast<int>(lift.graph.edge(id).color));
      }
      std::sort(ports.begin(), ports.end());
      for (std::size_t k = 0; k < ports.size(); ++k) {
        EXPECT_EQ(ports[k], static_cast<int>(k) + 1) << seed << " v=" << v;
      }
    }
  }
}

TEST(Generators, RingFibrationProjectsModP) {
  const LiftedGraph lift = ring_fibration(12, 4);
  EXPECT_TRUE(is_fibration(lift.graph, bidirectional_ring(4),
                           lift.projection));
  EXPECT_THROW(ring_fibration(10, 4), std::invalid_argument);
}

TEST(Generators, InvalidArguments) {
  EXPECT_THROW(directed_ring(0), std::invalid_argument);
  EXPECT_THROW(de_bruijn(1, 2), std::invalid_argument);
  EXPECT_THROW(random_lift(directed_ring(2), {1}, 0), std::invalid_argument);
  EXPECT_THROW(random_lift(directed_ring(2), {1, 0}, 0),
               std::invalid_argument);
  EXPECT_THROW(random_covering_lift(directed_ring(2), 0, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace anonet
