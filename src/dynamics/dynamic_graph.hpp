#pragma once

// Dynamic graphs: an infinite sequence G(1), G(2), ... over a fixed vertex
// set (Section 2.1). Implementations must be deterministic functions of the
// round (randomized schedules derive their round graph from a seed and t) so
// executions are reproducible and the same schedule can be replayed for
// analysis and for simulation.

#include <memory>
#include <stdexcept>

#include "graph/digraph.hpp"

namespace anonet {

// A round graph lent by a schedule: a pointer into storage the schedule
// owns (a stored phase graph, or one of BuiltSchedule's two slots). A lent
// graph builds its caches (adjacency, receiver CSR, validation verdicts)
// once, and nothing in the executor is keyed on its address.
class RoundGraphRef {
 public:
  explicit RoundGraphRef(const Digraph* graph) : ptr_(graph) {}

  [[nodiscard]] const Digraph& get() const { return *ptr_; }

 private:
  const Digraph* ptr_;
};

// The one contract every schedule keeps: view(t) lends round t's graph,
// and the lent graph stays valid across one further view() call on the
// same schedule (the pooled executor asks for round t + 1 while round t's
// graph is delivered). Lending goes through unsynchronized mutable state
// (BuiltSchedule's slots, the Digraph caches), so no schedule object is
// shared between concurrently stepping executors: each executor, and each
// campaign cell, gets its own.
class DynamicGraph {
 public:
  virtual ~DynamicGraph() = default;

  [[nodiscard]] virtual Vertex vertex_count() const = 0;

  // Communication graph of round t (t >= 1), lent as above. Must contain a
  // self-loop at every vertex (an agent always hears itself).
  [[nodiscard]] virtual RoundGraphRef view(int t) const = 0;

  // A copy of round t's graph, for callers that keep or modify it.
  [[nodiscard]] Digraph at(int t) const { return view(t).get(); }

 protected:
  static void require_round(int t) {
    if (t < 1) {
      throw std::invalid_argument("DynamicGraph::view: rounds start at 1");
    }
  }
};

// A schedule that generates each round graph: build(t, into) makes `into`
// round t's graph, a pure function of (construction arguments, t), and
// view(t) lends the result from two slots. A miss builds into the slot not
// returned last, in place (`into` is that slot's graph from an earlier
// round, whose storage the build reuses through Digraph::reset), so a graph
// lent for round t stays valid across one further view(), hit or miss.
// The slot is marked empty before its build and records round t only after
// the build returns: a build that throws leaves the slot lent last intact,
// records no round, and leaves the other slot empty, so whichever round it
// held is rebuilt when asked again.
class BuiltSchedule : public DynamicGraph {
 public:
  [[nodiscard]] RoundGraphRef view(int t) const final {
    require_round(t);
    for (int i = 0; i < 2; ++i) {
      if (slots_[i].round == t) {
        last_ = i;
        return RoundGraphRef(&slots_[i].graph);
      }
    }
    Slot& slot = slots_[1 - last_];
    slot.round = -1;
    build(t, slot.graph);
    slot.round = t;
    last_ = 1 - last_;
    return RoundGraphRef(&slot.graph);
  }

 protected:
  virtual void build(int t, Digraph& into) const = 0;

 private:
  struct Slot {
    int round = -1;  // rounds start at 1; -1 = empty
    Digraph graph;
  };
  mutable Slot slots_[2];
  mutable int last_ = 1;  // the slot returned last; the first miss fills 0
};

using DynamicGraphPtr = std::shared_ptr<const DynamicGraph>;

}  // namespace anonet
