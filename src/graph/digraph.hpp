#pragma once

// Directed multigraphs with explicit edge identity.
//
// Following Section 3 of the paper, a graph is a vertex set [n] together with
// a set of edges given by source and target maps; parallel edges are
// meaningful (minimum bases are multigraphs), and each edge carries a color
// used to model *output port awareness* (a local labelling of the outgoing
// edges of each vertex). Vertex valuations (input values, outdegrees) are kept
// outside the structure, as plain vectors indexed by vertex, so the same
// topology can carry several valuations at once.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace anonet {

using Vertex = std::int32_t;
using EdgeId = std::int32_t;

// Edge colors model output-port labels; kNoColor means "uncolored".
using EdgeColor = std::int32_t;
inline constexpr EdgeColor kNoColor = 0;

struct Edge {
  Vertex source = 0;
  Vertex target = 0;
  EdgeColor color = kNoColor;

  friend bool operator==(const Edge&, const Edge&) = default;
};

// A lazily computed tri-state verdict (-1 unknown, 0 false, 1 true) held in
// an atomic so concurrent const queries on a shared graph are race-free:
// two threads may both compute the predicate, but it is a pure function of
// the edge multiset, so they store the same value (benign double-checked
// compute, relaxed ordering suffices). Copyable so graph copies carry their
// verdicts along.
class CachedVerdict {
 public:
  CachedVerdict() = default;
  CachedVerdict(const CachedVerdict& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  CachedVerdict& operator=(const CachedVerdict& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  // -1 unknown, 0 false, 1 true.
  [[nodiscard]] std::int8_t get() const {
    return value_.load(std::memory_order_relaxed);
  }
  void set(bool verdict) {
    value_.store(verdict ? 1 : 0, std::memory_order_relaxed);
  }
  void reset() { value_.store(-1, std::memory_order_relaxed); }

 private:
  std::atomic<std::int8_t> value_{-1};
};

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(Vertex vertex_count);

  [[nodiscard]] Vertex vertex_count() const { return vertex_count_; }
  [[nodiscard]] EdgeId edge_count() const {
    return static_cast<EdgeId>(edges_.size());
  }

  // Returns the id of the new edge. Invalidates adjacency spans.
  EdgeId add_edge(Vertex source, Vertex target, EdgeColor color = kNoColor);

  // Empties the graph to `vertex_count` vertices and no edges, as a fresh
  // Digraph(vertex_count) would be, but keeps the capacity of the edge list
  // and of every cache, so a graph rebuilt in place each round stops
  // allocating once its storage has grown. Invalidates adjacency spans.
  void reset(Vertex vertex_count);
  // Capacity for `edge_count` edges in all, so a builder that knows its
  // edge count sizes the edge list once, without growth slack.
  void reserve(std::size_t edge_count) { edges_.reserve(edge_count); }

  [[nodiscard]] const Edge& edge(EdgeId id) const { return edges_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  // Edge ids whose target / source is `v`, in edge-id order (multiplicities
  // included, self-loops included). Built lazily and cached; cheap to call
  // repeatedly. The out-edge id list is a cache of its own, built on the
  // first out_edges() call (see the threading note below).
  [[nodiscard]] std::span<const EdgeId> in_edges(Vertex v) const;
  [[nodiscard]] std::span<const EdgeId> out_edges(Vertex v) const;

  // The receiver-side CSR behind in_edges, in in_edges(v) order: v's
  // in-edges sit at positions in_offsets()[v] .. in_offsets()[v + 1] of
  // in_edge_list() (their ids) and in_source_list() (their sources).
  [[nodiscard]] std::span<const std::int32_t> in_offsets() const {
    return adjacency().in_start_;
  }
  [[nodiscard]] std::span<const EdgeId> in_edge_list() const {
    return adjacency().in_list_;
  }
  [[nodiscard]] std::span<const Vertex> in_source_list() const {
    return adjacency().in_source_list_;
  }

  // Degrees count parallel edges and self-loops, matching the paper's
  // convention that every communication graph has a self-loop (an agent
  // always hears itself). Both read the adjacency's counts, never the
  // out-edge id list.
  [[nodiscard]] int indegree(Vertex v) const;
  [[nodiscard]] int outdegree(Vertex v) const;

  [[nodiscard]] bool has_edge(Vertex source, Vertex target) const;
  // Number of parallel source->target edges (the d_{i,j} of Section 4.2).
  [[nodiscard]] int edge_multiplicity(Vertex source, Vertex target) const;

  // True when every vertex has a self-loop; scans the receiver CSR.
  [[nodiscard]] bool has_all_self_loops() const;
  // Adds a self-loop at every vertex lacking one; returns number added.
  int ensure_self_loops();

  // True when the edge *multiset* is symmetric: for all (i, j),
  // multiplicity(i, j) == multiplicity(j, i). Colors are ignored. One
  // sequential pass first checks that every non-loop edge is immediately
  // followed by its reverse, the order the pairwise symmetric generators
  // and schedules emit: that pairs each (i, j) edge with a (j, i) edge, so
  // it proves symmetry. Only when it fails (complete_graph, say, emits row
  // by row) does the per-vertex comparison decide, which reads (and so
  // builds) the out-edge id list.
  [[nodiscard]] bool is_symmetric() const;

  // True when every vertex's out-edges are colored with exactly the ports
  // 1..outdegree (a valid local output labelling, Section 2.2).
  [[nodiscard]] bool has_valid_output_ports() const;

  // Graph with every edge reversed (colors preserved).
  [[nodiscard]] Digraph reversed() const;

  // Relabels outgoing edges of every vertex with distinct port colors
  // 1..outdegree(v), in edge-id order. Models giving the network output port
  // awareness (Section 2.2). Deterministic.
  void assign_output_ports();

 private:
  void build_adjacency() const;
  void build_out_list() const;
  const Digraph& adjacency() const {
    if (!adjacency_valid_) build_adjacency();
    return *this;
  }
  void invalidate_caches();

  Vertex vertex_count_ = 0;
  std::vector<Edge> edges_;

  // Lazy caches, rebuilt after mutation, in two layers:
  //  - the adjacency: the receiver CSR (in_start_, in_list_,
  //    in_source_list_) and the out-degree prefix out_start_, filled by one
  //    counting pass over the edges;
  //  - the out-edge id list out_list_, laid out by out_start_, built on the
  //    first out_edges() call (forcing the adjacency first).
  mutable bool adjacency_valid_ = false;
  mutable bool out_list_valid_ = false;
  mutable std::vector<EdgeId> in_list_, out_list_;
  mutable std::vector<Vertex> in_source_list_;  // edge(in_list_[k]).source
  mutable std::vector<std::int32_t> in_start_, out_start_;

  // Cached validation verdicts, keyed on this graph object: the executor
  // validates each round graph once instead of re-walking the edge set every
  // round. Copies carry the verdicts along (they describe the edge multiset,
  // which is copied too); any mutation resets them. Atomic, so concurrent
  // const verdict queries on a shared graph are race-free.
  //
  // The two lazy caches are the unsynchronized const paths; force each one
  // a thread may need before sharing the graph across threads:
  //  - the adjacency: forced by any of in_edges, in_offsets, in_edge_list,
  //    in_source_list, indegree, outdegree and has_all_self_loops;
  //  - the out-edge id list (and the adjacency under it): forced by any of
  //    out_edges, has_edge, edge_multiplicity and has_valid_output_ports.
  //    is_symmetric's first pass reads only the edge list; its fallback
  //    reads both caches, so it forces them only when the first pass fails.
  // Executor::step reads the adjacency in every model and the out-list only
  // under output port awareness; its check_round_graph forces the first
  // through in_offsets() and, under port awareness, the second through
  // validate_output_ports, before any parallel phase.
  mutable CachedVerdict self_loops_cache_;
  mutable CachedVerdict symmetric_cache_;
  mutable CachedVerdict output_ports_cache_;
};

// Footnote 3 of the paper: the product G1 ∘ G2 has an edge (i, j) whenever
// some k has (i, k) in G1 and (k, j) in G2. Used to define the dynamic
// diameter. Result edges are uncolored and deduplicated.
[[nodiscard]] Digraph graph_product(const Digraph& g1, const Digraph& g2);

// The complete graph on the same vertex set (with self-loops), the identity
// for recognising "G(t) ∘ ... ∘ G(t+D-1) is complete".
[[nodiscard]] bool is_complete_with_self_loops(const Digraph& g);

}  // namespace anonet
