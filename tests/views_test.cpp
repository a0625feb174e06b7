// Tests for hash-consed view trees and single-view base extraction.

#include <gtest/gtest.h>

#include <map>

#include "core/minbase_agent.hpp"
#include "dynamics/schedules.hpp"
#include "fibration/minimum_base.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "runtime/executor.hpp"
#include "views/base_extraction.hpp"
#include "views/label_codec.hpp"
#include "views/view_registry.hpp"

namespace anonet {
namespace {

TEST(ViewRegistry, LeafInterning) {
  ViewRegistry reg;
  EXPECT_EQ(reg.leaf(1), reg.leaf(1));
  EXPECT_NE(reg.leaf(1), reg.leaf(2));
  EXPECT_EQ(reg.depth(reg.leaf(1)), 0);
  EXPECT_EQ(reg.label(reg.leaf(7)), 7);
}

TEST(ViewRegistry, NodeChildrenAreAMultiset) {
  ViewRegistry reg;
  const ViewId a = reg.leaf(1);
  const ViewId b = reg.leaf(2);
  const ViewId n1 = reg.node(0, {{a, 0}, {b, 0}});
  const ViewId n2 = reg.node(0, {{b, 0}, {a, 0}});
  EXPECT_EQ(n1, n2);  // order irrelevant
  const ViewId n3 = reg.node(0, {{a, 0}, {a, 0}});
  EXPECT_NE(n1, n3);  // multiplicity matters
  EXPECT_EQ(reg.depth(n1), 1);
}

TEST(ViewRegistry, EdgeColorsDistinguishViews) {
  ViewRegistry reg;
  const ViewId a = reg.leaf(1);
  EXPECT_NE(reg.node(0, {{a, 1}}), reg.node(0, {{a, 2}}));
}

TEST(ViewRegistry, MixedChildDepthsThrow) {
  ViewRegistry reg;
  const ViewId leaf = reg.leaf(1);
  const ViewId deep = reg.node(1, {{leaf, 0}});
  EXPECT_THROW(reg.node(0, {{leaf, 0}, {deep, 0}}), std::invalid_argument);
  EXPECT_THROW(reg.node(0, {}), std::invalid_argument);
}

TEST(ViewRegistry, TruncateCommutesWithConstruction) {
  ViewRegistry reg;
  // Build the view of an agent on a directed 2-ring with labels 1, 2.
  const ViewId l1 = reg.leaf(1);
  const ViewId l2 = reg.leaf(2);
  const ViewId v1_depth1 = reg.node(1, {{l1, 0}, {l2, 0}});
  const ViewId v2_depth1 = reg.node(2, {{l2, 0}, {l1, 0}});
  const ViewId v1_depth2 = reg.node(1, {{v1_depth1, 0}, {v2_depth1, 0}});
  EXPECT_EQ(reg.truncate(v1_depth2, 1), v1_depth1);
  EXPECT_EQ(reg.truncate(v1_depth2, 0), l1);
  EXPECT_EQ(reg.truncate(v1_depth2, 2), v1_depth2);  // identity above depth
  EXPECT_EQ(reg.truncate(v1_depth2, 5), v1_depth2);
}

// Oracle for the per-node truncation table: the (id, h)-keyed map
// recursion it replaced. The map is the test's own, so the reference never
// reads the registry's table.
ViewId reference_truncate(ViewRegistry& reg, ViewId id, int h,
                          std::map<std::pair<ViewId, int>, ViewId>& memo) {
  if (reg.depth(id) <= h) return id;
  const auto known = memo.find({id, h});
  if (known != memo.end()) return known->second;
  ViewId result = kInvalidView;
  if (h == 0) {
    result = reg.leaf(reg.label(id));
  } else {
    // Copy: the recursion interns, which can reallocate the registry.
    const ViewRegistry::ChildList kids = reg.children(id);
    ViewRegistry::ChildList truncated;
    for (const auto& [child, color] : kids) {
      truncated.emplace_back(reference_truncate(reg, child, h - 1, memo),
                             color);
    }
    result = reg.node(reg.label(id), std::move(truncated));
  }
  memo.emplace(std::pair{id, h}, result);
  return result;
}

// truncate(id, h) against the reference for every id below `count` and
// every h < depth(id).
void expect_truncations_match(ViewRegistry& reg, ViewId count) {
  std::map<std::pair<ViewId, int>, ViewId> memo;
  for (ViewId id = 0; id < count; ++id) {
    for (int h = 0; h < reg.depth(id); ++h) {
      const ViewId fast = reg.truncate(id, h);
      ASSERT_EQ(fast, reference_truncate(reg, id, h, memo))
          << "id=" << id << " h=" << h;
    }
  }
}

TEST(ViewRegistry, TruncateMatchesTheReferenceRecursion) {
  // One registry filled the way minimum-base agents fill it: all four
  // models, a corrupted restart (receive truncates views of unequal
  // depths), and the finite-state path (a truncation after every round).
  // The last runs on a fresh random graph each round, so its truncations
  // keep interning new nodes and the registry reallocates under truncate.
  auto registry = std::make_shared<ViewRegistry>();
  auto codec = std::make_shared<LabelCodec>();
  Digraph g = random_symmetric_connected(6, 2, 5);
  g.assign_output_ports();
  const auto fixed = std::make_shared<StaticSchedule>(g);
  const std::vector<std::int64_t> inputs{1, 2, 1, 1, 2, 3};
  auto run = [&](const DynamicGraphPtr& schedule, CommModel model,
                 int max_view_depth, int rounds, bool corrupt) {
    std::vector<MinBaseAgent> agents;
    for (std::int64_t input : inputs) {
      agents.emplace_back(registry, codec, input, model, max_view_depth);
    }
    Executor<MinBaseAgent> exec(schedule, std::move(agents), model);
    for (int round = 0; round < rounds; ++round) {
      if (corrupt && round == rounds / 2) {
        const ViewId junk_leaf = registry->leaf(codec->value_label(97));
        exec.agents()[0].corrupt(junk_leaf);
        exec.agents()[3].corrupt(registry->node(
            codec->value_label(98), {{junk_leaf, 0}, {junk_leaf, 0}}));
      }
      exec.step();
      for (Vertex v = 0; v < 6; ++v) {
        static_cast<void>(exec.agent(v).candidate());
      }
    }
  };
  for (CommModel model :
       {CommModel::kSimpleBroadcast, CommModel::kOutdegreeAware,
        CommModel::kSymmetricBroadcast, CommModel::kOutputPortAware}) {
    run(fixed, model, 0, 12, false);
  }
  run(fixed, CommModel::kSymmetricBroadcast, 0, 12, true);
  run(std::make_shared<RandomSymmetricSchedule>(6, 2, 5),
      CommModel::kOutdegreeAware, 5, 48, false);

  const auto count = static_cast<ViewId>(registry->size());
  expect_truncations_match(*registry, count);
  // Second pass: every truncate is now a table entry, and the reference
  // finds each node it builds already interned.
  const std::size_t interned = registry->size();
  expect_truncations_match(*registry, count);
  EXPECT_EQ(registry->size(), interned);
}

TEST(ViewRegistry, SubviewsCollectsEverything) {
  ViewRegistry reg;
  const ViewId a = reg.leaf(1);
  const ViewId b = reg.leaf(2);
  const ViewId mid = reg.node(3, {{a, 0}, {b, 0}});
  const ViewId top = reg.node(4, {{mid, 0}, {mid, 0}});
  const auto subs = reg.subviews(top);
  EXPECT_EQ(subs.size(), 4u);  // top, mid, a, b (deduplicated)
}

// Builds the depth-t views of all vertices of g by synchronous iteration —
// the mathematical object the distributed algorithm maintains.
std::vector<ViewId> views_at_depth(ViewRegistry& reg, const Digraph& g,
                                   const std::vector<int>& labels, int t) {
  std::vector<ViewId> current;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    current.push_back(reg.leaf(labels[static_cast<std::size_t>(v)]));
  }
  for (int round = 0; round < t; ++round) {
    std::vector<ViewId> next;
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      ViewRegistry::ChildList children;
      for (EdgeId id : g.in_edges(v)) {
        const Edge& e = g.edge(id);
        children.emplace_back(current[static_cast<std::size_t>(e.source)],
                              e.color);
      }
      next.push_back(reg.node(labels[static_cast<std::size_t>(v)],
                              std::move(children)));
    }
    current = std::move(next);
  }
  return current;
}

TEST(Views, SameFibreSameView) {
  // Vertices in the same fibre of a lift have equal views at every depth.
  const Digraph base = random_strongly_connected(3, 3, 9);
  const LiftedGraph lift = random_lift(base, {2, 2, 2}, 9);
  std::vector<int> labels;
  for (Vertex v : lift.projection) labels.push_back(static_cast<int>(v % 2));
  ViewRegistry reg;
  const auto views = views_at_depth(reg, lift.graph, labels, 8);
  const MinimumBase mb = minimum_base(lift.graph, labels);
  for (Vertex u = 0; u < lift.graph.vertex_count(); ++u) {
    for (Vertex v = 0; v < lift.graph.vertex_count(); ++v) {
      const bool same_fibre = mb.projection[static_cast<std::size_t>(u)] ==
                              mb.projection[static_cast<std::size_t>(v)];
      EXPECT_EQ(views[static_cast<std::size_t>(u)] ==
                    views[static_cast<std::size_t>(v)],
                same_fibre)
          << u << " vs " << v;
    }
  }
}

TEST(Views, ExtractBaseMatchesCentralizedMinimumBase) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Digraph base = random_strongly_connected(3, 2, seed + 3);
    const LiftedGraph lift = random_lift(base, {3, 3, 3}, seed);
    const Digraph& g = lift.graph;
    std::vector<int> labels(static_cast<std::size_t>(g.vertex_count()));
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      labels[static_cast<std::size_t>(v)] = static_cast<int>(v % 2);
    }
    ViewRegistry reg;
    const int n = g.vertex_count();
    const int depth = 2 * n;  // comfortably past n + D
    const auto views = views_at_depth(reg, g, labels, depth);
    const MinimumBase truth = minimum_base(g, labels);
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      const ExtractedBase extracted =
          extract_base(reg, views[static_cast<std::size_t>(v)]);
      ASSERT_TRUE(extracted.plausible) << seed << " v=" << v;
      EXPECT_TRUE(find_isomorphism(extracted.base, extracted.values,
                                   truth.base, truth.values)
                      .has_value())
          << seed << " v=" << v;
    }
  }
}

TEST(Views, ExtractBaseOnPrimeGraphRecoversTheGraph) {
  // All labels distinct: the graph is its own minimum base.
  const Digraph g = random_strongly_connected(5, 3, 42);
  std::vector<int> labels{10, 11, 12, 13, 14};
  ViewRegistry reg;
  const auto views = views_at_depth(reg, g, labels, 12);
  const ExtractedBase extracted = extract_base(reg, views[0]);
  ASSERT_TRUE(extracted.plausible);
  EXPECT_TRUE(
      find_isomorphism(extracted.base, extracted.values, g, labels)
          .has_value());
}

TEST(Views, ExtractBaseNotPlausibleAtDepthZero) {
  ViewRegistry reg;
  const ExtractedBase extracted = extract_base(reg, reg.leaf(1));
  EXPECT_FALSE(extracted.plausible);
}

TEST(ViewRegistry, TreeSizeCountsUnfoldedNodes) {
  ViewRegistry reg;
  const ViewId leaf = reg.leaf(1);
  EXPECT_DOUBLE_EQ(reg.tree_size(leaf), 1.0);
  const ViewId pair = reg.node(0, {{leaf, 0}, {leaf, 0}});
  EXPECT_DOUBLE_EQ(reg.tree_size(pair), 3.0);  // multiplicity counts
  const ViewId deep = reg.node(0, {{pair, 0}, {pair, 0}, {pair, 0}});
  EXPECT_DOUBLE_EQ(reg.tree_size(deep), 10.0);
  // Interned sharing does not shrink the mathematical size: doubling depth
  // roughly squares the unfolded node count.
  ViewId current = reg.leaf(5);
  for (int i = 0; i < 40; ++i) {
    current = reg.node(5, {{current, 0}, {current, 0}});
  }
  EXPECT_GT(reg.tree_size(current), 1e12);
  EXPECT_LT(reg.size(), 100u);  // while the registry stays tiny
}

TEST(LabelCodec, ValueLabelsRoundTrip) {
  LabelCodec codec;
  const int a = codec.value_label(42);
  const int b = codec.value_label(-7);
  EXPECT_EQ(codec.value_label(42), a);  // interning is stable
  EXPECT_NE(a, b);
  EXPECT_EQ(codec.value_of(a), 42);
  EXPECT_EQ(codec.value_of(b), -7);
  EXPECT_FALSE(codec.has_outdegree(a));
  EXPECT_THROW(static_cast<void>(codec.outdegree_of(a)), std::out_of_range);
}

TEST(LabelCodec, ValuedDegreeLabels) {
  LabelCodec codec;
  const int plain = codec.value_label(5);
  const int with_degree = codec.valued_degree_label(5, 3);
  EXPECT_NE(plain, with_degree);  // (5) and (5, d=3) are distinct labels
  EXPECT_NE(codec.valued_degree_label(5, 3), codec.valued_degree_label(5, 4));
  EXPECT_EQ(codec.value_of(with_degree), 5);
  EXPECT_TRUE(codec.has_outdegree(with_degree));
  EXPECT_EQ(codec.outdegree_of(with_degree), 3);
  EXPECT_THROW(static_cast<void>(codec.valued_degree_label(5, -1)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(codec.value_of(9999)), std::out_of_range);
}

}  // namespace
}  // namespace anonet
