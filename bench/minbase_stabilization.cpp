// Experiment F2 — Section 3.2 / 4.2: the distributed minimum-base algorithm
// stabilizes in linear time. The paper's refined extraction is guaranteed
// from round n + D; our self-stabilizing window extraction from n + 2D
// (see views/base_extraction.cpp). We measure the *actual* first round from
// which every agent's candidate is correct and stays correct, across graph
// families, against both bounds.
//
// Ablation A1 — the finite-state window (end of Section 3.2). The
// extraction needs every agent's depth-h view for h up to the refinement
// depth, gathered across D rounds, so windows below ~n + 2D must fail and
// windows above must succeed with bounded state. The window sweep on one
// network reports whether the candidate is correct after a long horizon,
// plus the bounded view depth — locating the phase transition the analysis
// predicts.
//
// Exits non-zero when an F2 case stabilizes after n + 2D, or when an A1
// window of at least n + 2D ends incorrect.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/minbase_agent.hpp"
#include "dynamics/schedules.hpp"
#include "fibration/minimum_base.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "runtime/convergence.hpp"

using namespace anonet;

namespace {

struct Case {
  const char* family;
  Digraph graph;
  std::vector<std::int64_t> inputs;
};

struct MinbaseRun {
  AttemptResult result;
  int view_depth;             // agent 0's view after the last round
  std::size_t registry_size;  // interned views after the last round
};

// Runs the minimum-base agents (window 0: unbounded views) and judges each
// round by whether every agent's candidate is isomorphic to the true
// minimum base: an agent scores 1 when it is, and no output otherwise.
MinbaseRun run_minbase(const Digraph& graph,
                       const std::vector<std::int64_t>& inputs,
                       CommModel model, int window, int rounds) {
  auto registry = std::make_shared<ViewRegistry>();
  auto codec = std::make_shared<LabelCodec>();
  std::vector<MinBaseAgent> agents;
  for (std::int64_t input : inputs) {
    agents.emplace_back(registry, codec, input, model, window);
  }
  Executor<MinBaseAgent> exec(std::make_shared<StaticSchedule>(graph),
                              std::move(agents), model);
  std::vector<int> labels;
  for (std::size_t v = 0; v < inputs.size(); ++v) {
    labels.push_back(
        model == CommModel::kOutdegreeAware
            ? codec->valued_degree_label(
                  inputs[v], graph.outdegree(static_cast<Vertex>(v)))
            : codec->value_label(inputs[v]));
  }
  const MinimumBase truth = minimum_base(graph, labels);
  const AttemptResult result = observe(
      exec, rounds, Rational(1), 0.0,
      [&](const MinBaseAgent& agent) -> std::optional<Rational> {
        const ExtractedBase& candidate = agent.candidate();
        if (candidate.plausible &&
            find_isomorphism(candidate.base, candidate.values, truth.base,
                             truth.values)
                .has_value()) {
          return Rational(1);
        }
        return std::nullopt;
      },
      StopRule::kHorizon);
  return {result, registry->depth(exec.agent(0).view()), registry->size()};
}

// F2: the stabilization round of each family against n + D and n + 2D.
bool stabilization_table() {
  std::vector<Case> cases;
  for (Vertex n : {4, 6, 8, 10, 12}) {
    std::vector<std::int64_t> alternating;
    for (Vertex v = 0; v < n; ++v) alternating.push_back(v % 2);
    cases.push_back({"bidir-ring", bidirectional_ring(n), alternating});
  }
  for (Vertex n : {6, 9, 12}) {
    const LiftedGraph lift = random_lift(
        random_strongly_connected(3, 3, static_cast<std::uint64_t>(n)),
        std::vector<int>(3, n / 3), static_cast<std::uint64_t>(n) + 1);
    std::vector<std::int64_t> values;
    for (Vertex b : lift.projection) values.push_back(b == 0 ? 1 : 0);
    cases.push_back({"random-lift", lift.graph, values});
  }
  for (Vertex n : {5, 8, 11}) {
    std::vector<std::int64_t> values;
    for (Vertex v = 0; v < n; ++v) values.push_back(v % 3);
    cases.push_back({"random-sc",
                     random_strongly_connected(n, n, static_cast<std::uint64_t>(n) * 3),
                     values});
  }

  std::printf(
      "F2 — distributed minimum base: measured stabilization round vs the "
      "linear bounds\n\n");
  std::printf("%-12s %4s %4s %6s | %9s %8s %9s\n", "family", "n", "D",
              "|base|", "measured", "n+D", "n+2D");
  bool all_within = true;
  for (const Case& c : cases) {
    const int n = c.graph.vertex_count();
    const int d = diameter(c.graph);
    std::vector<int> labels;
    for (std::int64_t v : c.inputs) labels.push_back(static_cast<int>(v));
    const MinimumBase truth = minimum_base(c.graph, labels);
    const CommModel model = c.graph.is_symmetric()
                                ? CommModel::kSymmetricBroadcast
                                : CommModel::kOutdegreeAware;
    const int measured =
        run_minbase(c.graph, c.inputs, model, 0, 2 * n + 4 * d + 6)
            .result.stabilization_round;
    const bool within = measured > 0 && measured <= n + 2 * d;
    all_within = all_within && within;
    std::printf("%-12s %4d %4d %6d | %9d %8d %9d %s\n", c.family, n, d,
                truth.base.vertex_count(), measured, n + d, n + 2 * d,
                within ? "" : "  <-- EXCEEDS BOUND");
  }
  std::printf(
      "\nShape: stabilization is linear in n + D everywhere, and within the "
      "implementation's n + 2D guarantee.\n%s\n",
      all_within ? "All cases within bound." : "BOUND VIOLATION — see above.");
  return all_within;
}

// A1: correctness after 4(n + 2D) rounds against the window.
bool window_table() {
  const Digraph g = bidirectional_ring(8);
  // One distinguished agent: the refinement must discover distance-to-leader
  // classes, which takes views as deep as the diameter — a hard instance.
  const std::vector<std::int64_t> inputs{9, 0, 0, 0, 0, 0, 0, 0};
  const int n = g.vertex_count();
  const int d = diameter(g);
  std::printf(
      "\nA1 — window ablation, finite-state minimum base on an 8-ring "
      "(n = %d, D = %d, guarantee threshold n + 2D = %d)\n\n",
      n, d, n + 2 * d);
  std::printf("%8s | %9s %11s %9s\n", "window", "correct?", "view depth",
              "registry");
  bool guarantee_held = true;
  for (int window : {2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 0}) {
    const MinbaseRun run = run_minbase(
        g, inputs, CommModel::kSymmetricBroadcast, window, 4 * (n + 2 * d));
    const bool guaranteed = window == 0 || window >= n + 2 * d;
    guarantee_held = guarantee_held && (run.result.success || !guaranteed);
    std::printf("%8s | %9s %11d %9zu%s\n",
                window == 0 ? "inf" : std::to_string(window).c_str(),
                run.result.success ? "yes" : "no", run.view_depth,
                run.registry_size,
                run.result.success || !guaranteed ? ""
                                                  : "  <-- GUARANTEE BROKEN");
  }
  std::printf(
      "\nShape: a sharp phase transition — windows below the extraction "
      "horizon cannot hold every agent's stabilized view and fail; windows "
      "at or above it succeed with state bounded by the window, matching "
      "the finite-state claim of Section 3.2.\n");
  return guarantee_held;
}

}  // namespace

int main() {
  const bool within = stabilization_table();
  const bool guarantee_held = window_table();
  return within && guarantee_held ? 0 : 1;
}
