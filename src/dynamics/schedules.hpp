#pragma once

// Dynamic-graph schedules used by the experiments.

#include <cstdint>
#include <vector>

#include "dynamics/dynamic_graph.hpp"

namespace anonet {

// The same graph every round (a static network seen dynamically).
class StaticSchedule final : public DynamicGraph {
 public:
  explicit StaticSchedule(Digraph g);

  [[nodiscard]] Vertex vertex_count() const override {
    return graph_.vertex_count();
  }
  [[nodiscard]] Digraph at(int t) const override;
  // Borrowed: the same stored graph every round, no copy.
  [[nodiscard]] RoundGraphRef view(int t) const override;

 private:
  Digraph graph_;
};

// Cycles through a fixed list of graphs: G(t) = phases[(t-1) % phases.size()].
class PeriodicSchedule final : public DynamicGraph {
 public:
  explicit PeriodicSchedule(std::vector<Digraph> phases);

  [[nodiscard]] Vertex vertex_count() const override;
  [[nodiscard]] Digraph at(int t) const override;
  // Borrowed: phase storage is immutable after construction, so the
  // returned pointers are stable and identify the phase topology.
  [[nodiscard]] RoundGraphRef view(int t) const override;

 private:
  std::vector<Digraph> phases_;
};

// Double-buffered per-schedule cache backing borrowed view(t) for schedules
// that materialize an independent graph per round. Without it the executor
// falls back to the owning view(t) path and re-materializes (allocates,
// copies, re-validates) a graph every round; with it the schedule builds
// the round graph once into stable storage and lends it out.
//
// A miss builds into the slot that was not returned last, so a borrowed
// ref for round t stays valid across one further view(), hit or miss: the
// pooled executor relies on this when it asks for round t + 1 while round
// t's graph is being delivered (docs/round_engine.md). A build that throws
// leaves both slots as they were.
// Like the Digraph adjacency cache, the slots are an unsynchronized mutable
// const path: a schedule with a round cache must not be shared between
// concurrently stepping executors — give each executor (each campaign
// cell) its own schedule object.
class RoundGraphCache {
 public:
  // Returns stable storage holding build(t), reusing it when round t is
  // already cached (repeated view(t) calls lend the same object).
  template <typename BuildFn>
  [[nodiscard]] const Digraph* get(int t, BuildFn&& build) const {
    for (int i = 0; i < 2; ++i) {
      if (slots_[i].round == t) {
        last_ = i;
        return &slots_[i].graph;
      }
    }
    Slot& slot = slots_[1 - last_];
    slot.graph = build(t);
    slot.round = t;
    last_ = 1 - last_;
    return &slot.graph;
  }

 private:
  struct Slot {
    int round = -1;  // rounds start at 1; -1 = empty
    Digraph graph;
  };
  mutable Slot slots_[2];
  mutable int last_ = 1;  // the slot returned last; the first miss fills 0
};

// Each round: an independent random Hamiltonian cycle plus `extra_edges`
// random edges plus self-loops. Every round graph is strongly connected, so
// the dynamic diameter is at most n - 1. Deterministic in (seed, t).
class RandomStronglyConnectedSchedule final : public DynamicGraph {
 public:
  RandomStronglyConnectedSchedule(Vertex n, int extra_edges,
                                  std::uint64_t seed);

  [[nodiscard]] Vertex vertex_count() const override { return n_; }
  [[nodiscard]] Digraph at(int t) const override;
  // Borrowed through the double-buffered round cache (see RoundGraphCache).
  [[nodiscard]] RoundGraphRef view(int t) const override;

 private:
  Vertex n_;
  int extra_edges_;
  std::uint64_t seed_;
  RoundGraphCache cache_;
};

// Each round: an independent random symmetric connected graph (random
// attachment tree, both orientations, plus extras). Models the dynamic
// symmetric-communications class; dynamic diameter at most n - 1.
class RandomSymmetricSchedule final : public DynamicGraph {
 public:
  RandomSymmetricSchedule(Vertex n, int extra_pairs, std::uint64_t seed);

  [[nodiscard]] Vertex vertex_count() const override { return n_; }
  [[nodiscard]] Digraph at(int t) const override;
  // Borrowed through the double-buffered round cache (see RoundGraphCache).
  [[nodiscard]] RoundGraphRef view(int t) const override;

 private:
  Vertex n_;
  int extra_pairs_;
  std::uint64_t seed_;
  RoundGraphCache cache_;
};

// Sparse adversarial schedule: round t carries only the single ring edge
// (t mod n) -> (t mod n + 1), plus all self-loops. Individual rounds are
// maximally disconnected yet the dynamic diameter is finite (at most n^2),
// exercising the "intermediate graphs may be disconnected" regime of
// Section 2.1.
class TokenRingSchedule final : public DynamicGraph {
 public:
  explicit TokenRingSchedule(Vertex n);

  [[nodiscard]] Vertex vertex_count() const override { return n_; }
  [[nodiscard]] Digraph at(int t) const override;

 private:
  Vertex n_;
};

// Pairwise interactions: each round an independent random partial matching
// (plus self-loops), both orientations. This is the footnote-2 regime of the
// paper — population protocols correspond to dynamic symmetric networks
// whose vertices have degree zero or one. Individual rounds are heavily
// disconnected; the dynamic diameter is finite with overwhelming probability
// (experiments certify it empirically via dynamics/connectivity.hpp).
class RandomMatchingSchedule final : public DynamicGraph {
 public:
  RandomMatchingSchedule(Vertex n, std::uint64_t seed);

  [[nodiscard]] Vertex vertex_count() const override { return n_; }
  [[nodiscard]] Digraph at(int t) const override;
  // Borrowed through the double-buffered round cache (see RoundGraphCache).
  [[nodiscard]] RoundGraphRef view(int t) const override;

 private:
  Vertex n_;
  std::uint64_t seed_;
  RoundGraphCache cache_;
};

// Weak connectivity (the concluding-remarks regime of Section 6): the
// network is "never permanently split" yet has NO finite dynamic diameter.
// Communication happens in bursts — the base graph is fully present for
// `burst_length` rounds starting at rounds 1, 1+gap, 1+gap+2·gap, ... with
// the gap doubling after every burst; between bursts only self-loops
// remain. Every pair of agents still communicates infinitely often, but any
// window bound D is eventually violated. Used to probe which algorithms
// survive losing the finite-diameter assumption (Moreau's theorem covers
// the symmetric averaging family; the paper asks what happens beyond it).
class GrowingGapSchedule final : public DynamicGraph {
 public:
  GrowingGapSchedule(Digraph base, int burst_length, int initial_gap);

  [[nodiscard]] Vertex vertex_count() const override {
    return base_.vertex_count();
  }
  [[nodiscard]] Digraph at(int t) const override;
  // Borrowed: the burst graph and the self-loop-only gap graph are both
  // precomputed members.
  [[nodiscard]] RoundGraphRef view(int t) const override;
  // True when round t falls inside a communication burst.
  [[nodiscard]] bool in_burst(int t) const;

 private:
  Digraph base_;
  Digraph isolated_;  // self-loops only, served between bursts
  int burst_length_;
  int initial_gap_;
};

// Asynchronous starts (Section 2.2 / end of Section 5.3): the wrapped
// schedule with edge (i, j) removed while t < max(start[i], start[j]);
// self-loops always remain. Not-yet-started agents are thereby isolated.
class AsyncStartSchedule final : public DynamicGraph {
 public:
  AsyncStartSchedule(DynamicGraphPtr inner, std::vector<int> start_rounds);

  [[nodiscard]] Vertex vertex_count() const override {
    return inner_->vertex_count();
  }
  [[nodiscard]] Digraph at(int t) const override;

 private:
  DynamicGraphPtr inner_;
  std::vector<int> start_rounds_;
};

}  // namespace anonet
