#pragma once

// Perturbations: the ways a run can deviate from the clean synchronous
// model while staying a deterministic function of (inputs, schedule, seed).
//
// Three axes, composable over any schedule:
//
//  - StartSchedule: executor-level asynchronous starts. Agent v wakes at
//    round w(v); before that it sends nothing and ignores deliveries (its
//    state is frozen at the initial state). This is the Section 2.2 regime
//    that the paper's self-stabilizing window extraction is built to
//    survive, expressed at the executor rather than by thinning the round
//    graphs (cf. AsyncStartSchedule, which models the same adversary as a
//    graph wrapper).
//
//  - FaultPlan: crash-stop rounds per vertex plus an iid message-drop
//    rate. A crashed agent permanently stops sending and receiving; its
//    last state remains readable (its output is stuck — exactly why
//    termination-detecting protocols break). Drops are decided per
//    (round, edge) by a counter RNG, so the loss pattern is a pure
//    function of the fault seed no matter how many threads deliver.
//
//  - ChurnSchedule: join/leave dynamics à la P2P overlays (Michail,
//    Chatzigiannakis & Spirakis: "Naming and Counting in Anonymous
//    Unknown Dynamic Networks"). Membership is resampled per epoch; an
//    absent vertex keeps only its self-loop (state frozen, rejoins with
//    state intact — a leave/rejoin, not a crash).
//
// Plus two realistic static topology families beyond rings and spooners:
// preferential-attachment (scale-free) and random-geometric graphs, the
// usual substrates for churn experiments.

#include <cstdint>
#include <vector>

#include "dynamics/dynamic_graph.hpp"
#include "dynamics/schedules.hpp"
#include "support/counter_rng.hpp"

namespace anonet {

// Round at which each agent wakes. Empty = synchronous (everyone awake
// from round 1). A sleeping agent neither sends nor receives; the round
// graph is untouched, so senders still split their state across the full
// outdegree — mass sent toward a sleeper is lost, which is the honest
// price of an executor-level async start.
struct StartSchedule {
  std::vector<int> wake_rounds;

  [[nodiscard]] bool awake(Vertex v, int t) const {
    return wake_rounds.empty() || t >= wake_rounds[static_cast<std::size_t>(v)];
  }
  // True when the schedule gates nothing (everyone awake from round 1).
  [[nodiscard]] bool trivial() const {
    for (int w : wake_rounds) {
      if (w > 1) return false;
    }
    return true;
  }

  static StartSchedule synchronous() { return {}; }
  // Agent v wakes at round 1 + stride * v.
  static StartSchedule staggered(Vertex n, int stride);
  // Everyone wakes at round 1 except the last agent, who sleeps until
  // `wake_round`.
  static StartSchedule straggler(Vertex n, int wake_round);
};

// Crash-stop rounds and message-drop rate. Entries <= 0 in `crash_rounds`
// mean "never crashes"; a vertex with crash round c is gone from round c
// onward. `drop_rate` in [0, 1] is the iid per-(round, edge) loss
// probability; self-loops never drop (an agent always hears itself).
struct FaultPlan {
  std::vector<int> crash_rounds;
  double drop_rate = 0.0;
  std::uint64_t drop_seed = 0;

  [[nodiscard]] bool crashed(Vertex v, int t) const {
    if (crash_rounds.empty()) return false;
    const int c = crash_rounds[static_cast<std::size_t>(v)];
    return c > 0 && t >= c;
  }
  [[nodiscard]] bool trivial() const {
    if (drop_rate > 0.0) return false;
    for (int c : crash_rounds) {
      if (c > 0) return false;
    }
    return true;
  }

  // Agent 0 crashes at round `round`, nobody else.
  static FaultPlan crash_first_agent(Vertex n, int round);
  static FaultPlan drop(double rate, std::uint64_t seed);
};

// `rate` scaled to a u64 comparison threshold (clamped to [0, 1]).
[[nodiscard]] std::uint64_t drop_threshold(double rate);

// Deterministic per-(round, edge) drop decision: a pure function of the
// key, so delivery threads agree without coordination.
[[nodiscard]] inline bool drops_message(std::uint64_t seed, int t, EdgeId e,
                                        std::uint64_t threshold) {
  return threshold != 0 &&
         CounterRng(seed, static_cast<std::uint64_t>(t),
                    static_cast<std::uint64_t>(e))() < threshold;
}

// Join/leave churn over any schedule: membership is resampled every
// `epoch_length` rounds — each vertex is independently present with
// probability 1 - churn_rate, decided by a counter RNG keyed on
// (seed, epoch, vertex). Absent vertices keep only their self-loop: their
// state freezes and survives to the rejoin (leave/rejoin, not crash).
// Epoch 1 (rounds 1..epoch_length) always has full membership so every
// input value is heard at least once, and vertex 0 is a permanent anchor
// so the population never empties. Round t's graph is a pure function of
// (construction arguments, t), built from the inner schedule's lent graph
// and lent like every BuiltSchedule: valid across one further view(), and
// the schedule (with its inner one) is not shared between concurrently
// stepping executors.
class ChurnSchedule final : public BuiltSchedule {
 public:
  ChurnSchedule(DynamicGraphPtr inner, int epoch_length, double churn_rate,
                std::uint64_t seed);

  [[nodiscard]] Vertex vertex_count() const override {
    return inner_->vertex_count();
  }

  // Is vertex v a member during round t?
  [[nodiscard]] bool present(Vertex v, int t) const;

 private:
  void build(int t, Digraph& into) const override;

  DynamicGraphPtr inner_;
  int epoch_length_;
  std::uint64_t leave_threshold_;
  std::uint64_t seed_;
};

// Barabási–Albert style preferential attachment: vertex i attaches to
// min(m, i) distinct earlier vertices chosen proportionally to degree,
// both orientations plus self-loops. Connected, symmetric, scale-free-ish
// degree tail — the shape of a real unstructured overlay.
[[nodiscard]] Digraph preferential_attachment_graph(Vertex n, int m,
                                                    std::uint64_t seed);

// Random geometric graph: positions uniform in the unit square, an edge
// (both orientations) between vertices within `radius`, plus a
// deterministic nearest-predecessor link from every vertex so the graph
// is connected even below the connectivity threshold. Symmetric, with
// self-loops.
[[nodiscard]] Digraph random_geometric_graph(Vertex n, double radius,
                                             std::uint64_t seed);

// Campaign-facing factories: a churn overlay over a static realistic
// topology, all parameters derived from (n, seed).
[[nodiscard]] DynamicGraphPtr preferential_churn_schedule(Vertex n,
                                                          std::uint64_t seed);
[[nodiscard]] DynamicGraphPtr geometric_churn_schedule(Vertex n,
                                                       std::uint64_t seed);

}  // namespace anonet
