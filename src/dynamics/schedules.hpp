#pragma once

// Dynamic-graph schedules used by the experiments. Schedules that store
// their round graphs lend them from view(t); schedules that generate one
// per round implement a pure build(t, into) and lend through BuiltSchedule,
// which builds each round in place into the slot it is about to lend. Either
// way a lent graph stays valid across one further view(), and no schedule
// object is shared between concurrently stepping executors
// (dynamics/dynamic_graph.hpp).

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
  // Lends the same stored graph every round.
  [[nodiscard]] RoundGraphRef view(int t) const override;

 private:
  Digraph graph_;
};

// Cycles through a fixed list of graphs: G(t) = phases[(t-1) % phases.size()].
// The one stored periodic schedule; adversaries with a fixed phase list
// (adversarial.hpp's UnionRingSchedule) derive from it.
class PeriodicSchedule : public DynamicGraph {
 public:
  explicit PeriodicSchedule(std::vector<Digraph> phases);

  [[nodiscard]] Vertex vertex_count() const override;
  // Lends the stored phase graph; phase storage is immutable after
  // construction.
  [[nodiscard]] RoundGraphRef view(int t) const override;
  [[nodiscard]] int period() const { return static_cast<int>(phases_.size()); }

 private:
  std::vector<Digraph> phases_;
};

// Each round: an independent random Hamiltonian cycle plus `extra_edges`
// random edges plus self-loops. Every round graph is strongly connected, so
// the dynamic diameter is at most n - 1. Deterministic in (seed, t).
class RandomStronglyConnectedSchedule final : public BuiltSchedule {
 public:
  RandomStronglyConnectedSchedule(Vertex n, int extra_edges,
                                  std::uint64_t seed);

  [[nodiscard]] Vertex vertex_count() const override { return n_; }

 private:
  void build(int t, Digraph& into) const override;

  Vertex n_;
  int extra_edges_;
  std::uint64_t seed_;
};

// Each round: an independent random symmetric connected graph (random
// attachment tree, both orientations, plus extras). Models the dynamic
// symmetric-communications class; dynamic diameter at most n - 1.
class RandomSymmetricSchedule final : public BuiltSchedule {
 public:
  RandomSymmetricSchedule(Vertex n, int extra_pairs, std::uint64_t seed);

  [[nodiscard]] Vertex vertex_count() const override { return n_; }

 private:
  void build(int t, Digraph& into) const override;

  Vertex n_;
  int extra_pairs_;
  std::uint64_t seed_;
};

// Sparse adversarial schedule: round t carries only the single ring edge
// (t mod n) -> (t mod n + 1), plus all self-loops. Individual rounds are
// maximally disconnected yet the dynamic diameter is finite (at most n^2),
// exercising the "intermediate graphs may be disconnected" regime of
// Section 2.1.
class TokenRingSchedule final : public BuiltSchedule {
 public:
  explicit TokenRingSchedule(Vertex n);

  [[nodiscard]] Vertex vertex_count() const override { return n_; }

 private:
  void build(int t, Digraph& into) const override;

  Vertex n_;
};

// Pairwise interactions: each round an independent random partial matching
// (plus self-loops), both orientations. This is the footnote-2 regime of the
// paper — population protocols correspond to dynamic symmetric networks
// whose vertices have degree zero or one. Individual rounds are heavily
// disconnected; the dynamic diameter is finite with overwhelming probability
// (experiments certify it empirically via dynamics/connectivity.hpp).
class RandomMatchingSchedule final : public BuiltSchedule {
 public:
  RandomMatchingSchedule(Vertex n, std::uint64_t seed);

  [[nodiscard]] Vertex vertex_count() const override { return n_; }

 private:
  void build(int t, Digraph& into) const override;

  Vertex n_;
  std::uint64_t seed_;
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
  // Lends the burst graph or the self-loop-only gap graph, both stored.
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
class AsyncStartSchedule final : public BuiltSchedule {
 public:
  AsyncStartSchedule(DynamicGraphPtr inner, std::vector<int> start_rounds);

  [[nodiscard]] Vertex vertex_count() const override {
    return inner_->vertex_count();
  }

 private:
  // Filters the inner schedule's lent round graph.
  void build(int t, Digraph& into) const override;

  DynamicGraphPtr inner_;
  std::vector<int> start_rounds_;
};

}  // namespace anonet
