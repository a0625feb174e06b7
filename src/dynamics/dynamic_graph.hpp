#pragma once

// Dynamic graphs: an infinite sequence G(1), G(2), ... over a fixed vertex
// set (Section 2.1). Implementations must be deterministic functions of the
// round (randomized schedules derive their round graph from a seed and t) so
// executions are reproducible and the same schedule can be replayed for
// analysis and for simulation.

#include <memory>
#include <utility>

#include "graph/digraph.hpp"

namespace anonet {

// A round graph handed out by a schedule, either *borrowed* (a pointer into
// storage the schedule keeps alive — static and periodic schedules serve
// the same Digraph object every round) or *owned* (a graph materialized for
// this round). Borrowed views save the executor a graph copy per round,
// and a lent graph builds its caches (adjacency, receiver CSR, validation
// verdicts) once. Nothing in the executor is keyed on the address.
class RoundGraphRef {
 public:
  // Owned: wraps a freshly built graph.
  explicit RoundGraphRef(Digraph graph)
      : owned_(std::make_shared<const Digraph>(std::move(graph))),
        ptr_(owned_.get()) {}

  // Borrowed: `graph` must outlive every use of this ref (schedules return
  // pointers to members, which the executor holds via DynamicGraphPtr).
  explicit RoundGraphRef(const Digraph* graph) : ptr_(graph) {}

  [[nodiscard]] const Digraph& get() const { return *ptr_; }
  [[nodiscard]] bool is_borrowed() const { return owned_ == nullptr; }

 private:
  std::shared_ptr<const Digraph> owned_;  // null when borrowed
  const Digraph* ptr_;
};

class DynamicGraph {
 public:
  virtual ~DynamicGraph() = default;

  [[nodiscard]] virtual Vertex vertex_count() const = 0;

  // Communication graph of round t (t >= 1). Must contain a self-loop at
  // every vertex (an agent always hears itself).
  [[nodiscard]] virtual Digraph at(int t) const = 0;

  // Borrowed-or-owned access to the round-t graph. The default materializes
  // at(t); schedules that store their round graphs (static, periodic,
  // growing-gap) override this to lend the stored object instead, saving a
  // full graph copy per round. Semantically view(t).get() == at(t) always.
  [[nodiscard]] virtual RoundGraphRef view(int t) const {
    return RoundGraphRef(at(t));
  }
};

using DynamicGraphPtr = std::shared_ptr<const DynamicGraph>;

}  // namespace anonet
