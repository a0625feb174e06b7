// Unit tests for the directed multigraph (graph/digraph.hpp).

#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace anonet {
namespace {

Digraph triangle() {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  return g;
}

TEST(Digraph, AddEdgeValidatesVertices) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW(g.add_edge(-1, 0), std::out_of_range);
  EXPECT_THROW(Digraph(-1), std::invalid_argument);
}

TEST(Digraph, DegreesCountMultiplicity) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(0, 0);
  EXPECT_EQ(g.outdegree(0), 3);
  EXPECT_EQ(g.indegree(1), 2);
  EXPECT_EQ(g.indegree(0), 1);
  EXPECT_EQ(g.edge_multiplicity(0, 1), 2);
  EXPECT_EQ(g.edge_multiplicity(1, 0), 0);
}

TEST(Digraph, AdjacencySpansSurviveRebuild) {
  Digraph g = triangle();
  EXPECT_EQ(g.out_edges(0).size(), 1u);
  g.add_edge(0, 2);  // invalidates and rebuilds lazily
  EXPECT_EQ(g.out_edges(0).size(), 2u);
  EXPECT_EQ(g.in_edges(2).size(), 2u);
}

TEST(Digraph, SelfLoops) {
  Digraph g = triangle();
  EXPECT_FALSE(g.has_all_self_loops());
  EXPECT_EQ(g.ensure_self_loops(), 3);
  EXPECT_TRUE(g.has_all_self_loops());
  EXPECT_EQ(g.ensure_self_loops(), 0);  // idempotent
}

TEST(Digraph, SymmetryIsAboutMultisets) {
  Digraph g(2);
  g.add_edge(0, 1);
  EXPECT_FALSE(g.is_symmetric());
  g.add_edge(1, 0);
  EXPECT_TRUE(g.is_symmetric());
  g.add_edge(0, 1);  // multiplicity 2 vs 1
  EXPECT_FALSE(g.is_symmetric());
  g.add_edge(1, 0);
  EXPECT_TRUE(g.is_symmetric());
}

// Random multigraphs for the differential tests below: parallel edges,
// self-loops and colors, built from a symmetric edge list that is then
// left alone, or has one edge flipped, deleted or added, so that both
// symmetry verdicts come up often.
Digraph random_multigraph(std::mt19937_64& rng) {
  const auto n = static_cast<Vertex>(1 + rng() % 7);
  std::vector<Edge> edges;
  const auto pairs = rng() % (2 * static_cast<std::uint64_t>(n) + 1);
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const auto a = static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n));
    const auto b = static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n));
    edges.push_back({a, b, static_cast<EdgeColor>(rng() % 3)});
    if (a != b || rng() % 2 == 0) {
      edges.push_back({b, a, static_cast<EdgeColor>(rng() % 3)});
    }
  }
  switch (rng() % 6) {
    case 0:  // flip one edge
      if (!edges.empty()) {
        Edge& e = edges[rng() % edges.size()];
        std::swap(e.source, e.target);
      }
      break;
    case 1:  // delete one edge
      if (!edges.empty()) {
        edges.erase(edges.begin() +
                    static_cast<std::ptrdiff_t>(rng() % edges.size()));
      }
      break;
    case 2:  // add one directed edge
      edges.push_back(
          {static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n)),
           static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n)),
           kNoColor});
      break;
    default:
      break;
  }
  std::shuffle(edges.begin(), edges.end(), rng);
  Digraph g(n);
  for (const Edge& e : edges) g.add_edge(e.source, e.target, e.color);
  return g;
}

// The self-loop fill and symmetry check as they were before their one-pass
// rewrites: the references the rewrites must reproduce.
int reference_ensure_self_loops(Digraph& g) {
  int added = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    if (!g.has_edge(v, v)) {
      g.add_edge(v, v);
      ++added;
    }
  }
  return added;
}

bool reference_is_symmetric(const Digraph& g) {
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    for (EdgeId id : g.out_edges(v)) {
      const Edge& e = g.edge(id);
      if (g.edge_multiplicity(e.source, e.target) !=
          g.edge_multiplicity(e.target, e.source)) {
        return false;
      }
    }
  }
  return true;
}

TEST(Digraph, EnsureSelfLoopsMatchesTheIncrementalReference) {
  std::mt19937_64 rng(2024);
  for (int i = 0; i < 20000; ++i) {
    Digraph fast = random_multigraph(rng);
    Digraph reference = fast;
    EXPECT_EQ(fast.ensure_self_loops(), reference_ensure_self_loops(reference))
        << i;
    ASSERT_EQ(fast.edges(), reference.edges()) << i;
    EXPECT_TRUE(fast.has_all_self_loops()) << i;
  }
}

TEST(Digraph, IsSymmetricMatchesThePairwiseReference) {
  std::mt19937_64 rng(7);
  int symmetric = 0;
  constexpr int kGraphs = 20000;
  for (int i = 0; i < kGraphs; ++i) {
    const Digraph g = random_multigraph(rng);
    const bool expected = reference_is_symmetric(g);
    ASSERT_EQ(g.is_symmetric(), expected) << i;
    symmetric += expected ? 1 : 0;
  }
  // Both verdicts must be well represented for the comparison to mean much.
  EXPECT_GT(symmetric, kGraphs / 4);
  EXPECT_LT(symmetric, 3 * kGraphs / 4);

  // Equal neighbour *sets* are not enough: a->b twice against b->a once.
  Digraph g(3);
  for (Vertex v = 0; v < 3; ++v) g.add_edge(v, v);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 1);
  EXPECT_FALSE(g.is_symmetric());
  EXPECT_FALSE(reference_is_symmetric(g));
}

TEST(Digraph, Reversed) {
  Digraph g = triangle();
  const Digraph r = g.reversed();
  EXPECT_TRUE(r.has_edge(1, 0));
  EXPECT_TRUE(r.has_edge(2, 1));
  EXPECT_TRUE(r.has_edge(0, 2));
  EXPECT_FALSE(r.has_edge(0, 1));
}

TEST(Digraph, AssignOutputPortsGivesValidLabelling) {
  Digraph g = triangle();
  g.ensure_self_loops();
  g.assign_output_ports();
  for (Vertex v = 0; v < 3; ++v) {
    std::vector<int> ports;
    for (EdgeId id : g.out_edges(v)) {
      ports.push_back(static_cast<int>(g.edge(id).color));
    }
    std::sort(ports.begin(), ports.end());
    for (std::size_t k = 0; k < ports.size(); ++k) {
      EXPECT_EQ(ports[k], static_cast<int>(k) + 1);
    }
  }
}

TEST(Digraph, GraphProductMatchesFootnote3) {
  // G1: 0->1, G2: 1->2 gives product edge 0->2.
  Digraph g1(3);
  g1.add_edge(0, 1);
  Digraph g2(3);
  g2.add_edge(1, 2);
  const Digraph product = graph_product(g1, g2);
  EXPECT_TRUE(product.has_edge(0, 2));
  EXPECT_EQ(product.edge_count(), 1);
}

TEST(Digraph, GraphProductWithSelfLoopsAccumulatesReachability) {
  Digraph g(3);
  g.ensure_self_loops();
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Digraph product = graph_product(g, g);
  EXPECT_TRUE(product.has_edge(0, 2));  // via 1
  EXPECT_TRUE(product.has_edge(0, 1));  // self-loop keeps direct edges
  EXPECT_FALSE(product.has_edge(2, 0));
}

TEST(Digraph, GraphProductSizeMismatchThrows) {
  EXPECT_THROW(graph_product(Digraph(2), Digraph(3)), std::invalid_argument);
}

TEST(Digraph, CompletenessRecognition) {
  Digraph g(2);
  g.add_edge(0, 0);
  g.add_edge(1, 1);
  g.add_edge(0, 1);
  EXPECT_FALSE(is_complete_with_self_loops(g));
  g.add_edge(1, 0);
  EXPECT_TRUE(is_complete_with_self_loops(g));
}

TEST(Digraph, EmptyGraph) {
  Digraph g;
  EXPECT_EQ(g.vertex_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_TRUE(g.has_all_self_loops());  // vacuously
}

}  // namespace
}  // namespace anonet
