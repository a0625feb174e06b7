// Tests for history-tree frequency computation (core/history_tree.hpp):
// exact frequencies on dynamic symmetric networks with NO bound on n and NO
// outdegree awareness — the mechanism behind Di Luna & Viglietta's cells of
// Table 2.

#include "core/history_tree.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/census.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "linalg/kernel.hpp"
#include "linalg/matrix.hpp"
#include "runtime/executor.hpp"

namespace anonet {
namespace {

// ---------------------------------------------------------------------------
// Differential oracle: the dense (level, class) assembly that
// solve_history_window replaced. One unknown per class of every window
// level, the refinement rows z_B = Σ z_children, and every double-count row,
// solved by the same positive_coprime_kernel_vector.

ViewId parent_class(const ViewRegistry& registry, ViewId node) {
  for (const auto& [child, color] : registry.children(node)) {
    if (color == 1) return child;
  }
  throw std::logic_error("HistoryFrequencyAgent: node without parent chain");
}

// Number of round-k in-edges from members of class `from` (color-0 slots).
int in_edge_count(const ViewRegistry& registry, ViewId node, ViewId from) {
  int count = 0;
  for (const auto& [child, color] : registry.children(node)) {
    if (color == 0 && child == from) ++count;
  }
  return count;
}

std::optional<HistoryClassSizes> dense_window_solve(
    const ViewRegistry& registry, ViewId view) {
  if (view == kInvalidView) return std::nullopt;

  const int t = registry.depth(view);
  const int t1 = t / 2;
  constexpr int kMaxWindowLevels = 12;
  const int t0 = std::max(t / 4, t1 - kMaxWindowLevels);
  if (t1 - t0 < 1) return std::nullopt;

  // Class sets per level: every embedded sub-view of depth k is some
  // agent's genuine round-k view (level-k history-tree node).
  const std::vector<ViewId> subviews = registry.subviews(view);
  std::vector<std::set<ViewId>> levels(static_cast<std::size_t>(t1 - t0 + 1));
  for (ViewId s : subviews) {
    const int k = registry.depth(s);
    if (k >= t0 && k <= t1) {
      levels[static_cast<std::size_t>(k - t0)].insert(s);
    }
  }

  // Variable index per (level, class).
  std::map<std::pair<int, ViewId>, std::size_t> var;
  std::vector<std::pair<int, ViewId>> var_keys;
  for (int k = t0; k <= t1; ++k) {
    for (ViewId c : levels[static_cast<std::size_t>(k - t0)]) {
      var.emplace(std::pair{k, c}, var_keys.size());
      var_keys.emplace_back(k, c);
    }
  }

  std::vector<std::vector<Rational>> rows;
  auto child_count = [&](ViewId node, ViewId child) {
    return in_edge_count(registry, node, child);
  };

  for (int k = t0 + 1; k <= t1; ++k) {
    const auto& lower = levels[static_cast<std::size_t>(k - 1 - t0)];
    const auto& upper = levels[static_cast<std::size_t>(k - t0)];
    // Children-of-parents map for this level (the parent chain).
    std::map<ViewId, std::vector<ViewId>> children_of;
    for (ViewId c : upper) {
      children_of[parent_class(registry, c)].push_back(c);
    }
    // Refinement: z_{parent} = Σ z_{children}.
    for (ViewId parent : lower) {
      std::vector<Rational> row(var_keys.size());
      row[var.at({k - 1, parent})] = Rational(1);
      auto it = children_of.find(parent);
      if (it == children_of.end()) return std::nullopt;  // incomplete window
      for (ViewId child : it->second) {
        row[var.at({k, child})] -= Rational(1);
      }
      rows.push_back(std::move(row));
    }
    // Symmetry double count, per unordered pair of level-(k-1) classes:
    //   Σ_{C child of B} c_{C,D} z_C = Σ_{C child of D} c_{C,B} z_C.
    std::vector<ViewId> lower_list(lower.begin(), lower.end());
    for (std::size_t i = 0; i < lower_list.size(); ++i) {
      for (std::size_t j = i; j < lower_list.size(); ++j) {
        const ViewId b = lower_list[i];
        const ViewId d = lower_list[j];
        std::vector<Rational> row(var_keys.size());
        bool nontrivial = false;
        for (ViewId c : children_of[b]) {
          const int count = child_count(c, d);
          if (count != 0) {
            row[var.at({k, c})] += Rational(count);
            nontrivial = true;
          }
        }
        for (ViewId c : children_of[d]) {
          const int count = child_count(c, b);
          if (count != 0) {
            row[var.at({k, c})] -= Rational(count);
            nontrivial = true;
          }
        }
        // For b == d both sums walk the same children with the same counts:
        // the row is zero (kept, as the original assembly kept it).
        if (nontrivial) rows.push_back(std::move(row));
      }
    }
  }
  if (rows.empty()) return std::nullopt;

  RationalMatrix system(rows.size(), var_keys.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < var_keys.size(); ++c) {
      system.at(r, c) = rows[r][c];
    }
  }
  const auto kernel = positive_coprime_kernel_vector(system);
  if (!kernel.has_value()) return std::nullopt;

  HistoryClassSizes solution;
  for (std::size_t i = 0; i < var_keys.size(); ++i) {
    if (var_keys[i].first == t1) {
      solution.classes.push_back(var_keys[i].second);
      solution.sizes.push_back((*kernel)[i]);
    }
  }
  if (solution.classes.empty()) return std::nullopt;
  return solution;
}

Digraph bidirectional_star(Vertex n) {
  Digraph star(n);
  for (Vertex v = 1; v < n; ++v) {
    star.add_edge(0, v);
    star.add_edge(v, 0);
  }
  star.ensure_self_loops();
  return star;
}

struct Rig {
  std::shared_ptr<ViewRegistry> registry = std::make_shared<ViewRegistry>();
  std::shared_ptr<LabelCodec> codec = std::make_shared<LabelCodec>();

  std::vector<HistoryFrequencyAgent> agents(
      const std::vector<std::int64_t>& inputs) {
    std::vector<HistoryFrequencyAgent> result;
    for (std::int64_t input : inputs) {
      result.emplace_back(registry, codec, input);
    }
    return result;
  }
};

TEST(HistoryTree, ExactFrequenciesOnDynamicSymmetricNoBound) {
  const std::vector<std::int64_t> inputs{7, 7, 3, 3, 3, 3};
  const Frequency truth = Frequency::of(inputs);
  Rig rig;
  Executor<HistoryFrequencyAgent> exec(
      std::make_shared<RandomSymmetricSchedule>(6, 2, 5), rig.agents(inputs),
      CommModel::kSymmetricBroadcast);
  exec.run(20);
  for (int extra = 0; extra < 5; ++extra) {
    exec.step();
    for (Vertex v = 0; v < 6; ++v) {
      const auto estimate = exec.agent(v).frequency_estimate();
      ASSERT_TRUE(estimate.has_value()) << v;
      EXPECT_EQ(*estimate, truth) << v;
    }
  }
}

TEST(HistoryTree, ExactOnStaticSymmetricWithCollapsedClasses) {
  // Alternating ring: classes never refine below two (size-3) classes —
  // the relations must still pin the 1:1 ratio.
  const std::vector<std::int64_t> inputs{1, 2, 1, 2, 1, 2};
  const Frequency truth = Frequency::of(inputs);
  Rig rig;
  Executor<HistoryFrequencyAgent> exec(
      std::make_shared<StaticSchedule>(bidirectional_ring(6)),
      rig.agents(inputs), CommModel::kSymmetricBroadcast);
  exec.run(24);
  for (Vertex v = 0; v < 6; ++v) {
    const auto estimate = exec.agent(v).frequency_estimate();
    ASSERT_TRUE(estimate.has_value()) << v;
    EXPECT_EQ(*estimate, truth) << v;
  }
}

TEST(HistoryTree, UnevenFrequenciesOnStaticStar) {
  // Hub + 4 identical leaves: classes {hub}, {leaves} with sizes 1:4.
  const std::vector<std::int64_t> inputs{9, 4, 4, 4, 4};
  const Frequency truth = Frequency::of(inputs);
  Rig rig;
  Executor<HistoryFrequencyAgent> exec(
      std::make_shared<StaticSchedule>(bidirectional_star(5)),
      rig.agents(inputs), CommModel::kSymmetricBroadcast);
  exec.run(24);
  for (Vertex v = 0; v < 5; ++v) {
    const auto estimate = exec.agent(v).frequency_estimate();
    ASSERT_TRUE(estimate.has_value()) << v;
    EXPECT_EQ(*estimate, truth) << v;
  }
}

TEST(HistoryTree, WorksOnSparseMatchingSchedule) {
  // Pairwise interactions (population-protocol regime): rounds are heavily
  // disconnected, the class relations accumulate across the window.
  const std::vector<std::int64_t> inputs{5, 5, 5, 8};
  const Frequency truth = Frequency::of(inputs);
  Rig rig;
  Executor<HistoryFrequencyAgent> exec(
      std::make_shared<RandomMatchingSchedule>(4, 11), rig.agents(inputs),
      CommModel::kSymmetricBroadcast);
  exec.run(60);
  int exact = 0;
  for (Vertex v = 0; v < 4; ++v) {
    const auto estimate = exec.agent(v).frequency_estimate();
    if (estimate.has_value() && *estimate == truth) ++exact;
  }
  EXPECT_EQ(exact, 4);
}

TEST(HistoryTree, LeaderVariantRecoversExactMultiset) {
  const std::vector<std::int64_t> values{3, 3, 3, 9, 9, 4};
  std::vector<std::int64_t> inputs;
  for (std::size_t i = 0; i < values.size(); ++i) {
    inputs.push_back(encode_leader_input(values[i], i == 5));
  }
  Rig rig;
  Executor<HistoryFrequencyAgent> exec(
      std::make_shared<RandomSymmetricSchedule>(6, 3, 9), rig.agents(inputs),
      CommModel::kSymmetricBroadcast);
  exec.run(24);
  for (Vertex v = 0; v < 6; ++v) {
    const auto multiset = exec.agent(v).multiset_estimate(1);
    ASSERT_TRUE(multiset.has_value()) << v;
    EXPECT_EQ(multiset->at(3), BigInt(3)) << v;
    EXPECT_EQ(multiset->at(9), BigInt(2)) << v;
    EXPECT_EQ(multiset->at(4), BigInt(1)) << v;
  }
}

TEST(HistoryTree, NoEstimateInTheFirstRounds) {
  Rig rig;
  Executor<HistoryFrequencyAgent> exec(
      std::make_shared<StaticSchedule>(bidirectional_ring(4)),
      rig.agents({1, 2, 1, 2}), CommModel::kSymmetricBroadcast);
  exec.step();  // t = 1: window [t/4, t/2] is empty, no estimate yet
  EXPECT_FALSE(exec.agent(0).frequency_estimate().has_value());
}

// Inputs for the differential sweep: distinct, two-valued, all-equal and
// leader-coded (one leader).
std::vector<std::int64_t> sweep_inputs(int kind, Vertex n) {
  std::vector<std::int64_t> inputs;
  for (Vertex v = 0; v < n; ++v) {
    switch (kind) {
      case 0: inputs.push_back(v + 1); break;
      case 1: inputs.push_back(v % 3 == 0 ? 7 : 2); break;
      case 2: inputs.push_back(5); break;
      default: inputs.push_back(encode_leader_input(v % 2 + 3, v == 0));
    }
  }
  return inputs;
}

TEST(HistoryTree, WindowSolveMatchesTheDenseOracle) {
  // Every agent in every round: the deepest-level solve must return the
  // dense oracle's classes and sizes, or nullopt exactly when it does.
  // Agents sharing a view share the verdict, so each view is checked once.
  // The two-agent networks run long enough (t >= 48) to fill the capped
  // 12-level window; the dense oracle keeps the others short.
  int solved = 0;
  int unsolved = 0;
  for (Vertex n = 2; n <= 8; ++n) {
    const int rounds = n == 2 ? 52 : 18;
    const std::uint64_t seed = 100 + static_cast<std::uint64_t>(n);
    const std::vector<std::pair<std::string, DynamicGraphPtr>> schedules = {
        {"symmetric+1", std::make_shared<RandomSymmetricSchedule>(n, 1, seed)},
        {"symmetric+3", std::make_shared<RandomSymmetricSchedule>(n, 3, seed)},
        {"matching", std::make_shared<RandomMatchingSchedule>(n, seed)},
        {"ring", std::make_shared<StaticSchedule>(bidirectional_ring(n))},
        {"star", std::make_shared<StaticSchedule>(bidirectional_star(n))},
    };
    for (const auto& [name, schedule] : schedules) {
      for (int kind = 0; kind < 4; ++kind) {
        Rig rig;
        Executor<HistoryFrequencyAgent> exec(
            schedule, rig.agents(sweep_inputs(kind, n)),
            CommModel::kSymmetricBroadcast);
        std::set<ViewId> checked;
        for (int round = 1; round <= rounds; ++round) {
          exec.step();
          for (Vertex v = 0; v < n; ++v) {
            const ViewId view = exec.agent(v).view();
            if (!checked.insert(view).second) continue;
            const auto fast = solve_history_window(*rig.registry, view);
            const auto dense = dense_window_solve(*rig.registry, view);
            ASSERT_EQ(fast.has_value(), dense.has_value())
                << name << " n=" << n << " inputs=" << kind
                << " round=" << round << " agent=" << v;
            if (!fast.has_value()) {
              ++unsolved;
              continue;
            }
            ++solved;
            EXPECT_EQ(fast->classes, dense->classes) << name << " n=" << n;
            EXPECT_EQ(fast->sizes, dense->sizes) << name << " n=" << n;
            if (name == "ring" && kind == 2) {
              // One class per level: every double-count row is a b == d
              // row, so the system has no rows and the class gets size 1.
              EXPECT_EQ(fast->sizes, std::vector<BigInt>{BigInt(1)})
                  << "n=" << n;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(solved, 0);
  EXPECT_GT(unsolved, 0);
}

TEST(HistoryTree, InputValidation) {
  Rig rig;
  EXPECT_THROW(HistoryFrequencyAgent(nullptr, rig.codec, 1),
               std::invalid_argument);
  HistoryFrequencyAgent agent(rig.registry, rig.codec, 1);
  EXPECT_THROW(agent.multiset_estimate(0), std::invalid_argument);
}

}  // namespace
}  // namespace anonet
