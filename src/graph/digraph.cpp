#include "graph/digraph.hpp"

#include <algorithm>
#include <stdexcept>

namespace anonet {

Digraph::Digraph(Vertex vertex_count) : vertex_count_(vertex_count) {
  if (vertex_count < 0) throw std::invalid_argument("Digraph: negative size");
}

EdgeId Digraph::add_edge(Vertex source, Vertex target, EdgeColor color) {
  if (source < 0 || source >= vertex_count_ || target < 0 ||
      target >= vertex_count_) {
    throw std::out_of_range("Digraph::add_edge: vertex out of range");
  }
  edges_.push_back(Edge{source, target, color});
  invalidate_caches();
  return static_cast<EdgeId>(edges_.size() - 1);
}

void Digraph::invalidate_caches() {
  adjacency_valid_ = false;
  self_loops_cache_.reset();
  symmetric_cache_.reset();
  output_ports_cache_.reset();
}

void Digraph::build_adjacency() const {
  const auto n = static_cast<std::size_t>(vertex_count_);
  in_start_.assign(n + 1, 0);
  out_start_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++in_start_[static_cast<std::size_t>(e.target) + 1];
    ++out_start_[static_cast<std::size_t>(e.source) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    in_start_[v + 1] += in_start_[v];
    out_start_[v + 1] += out_start_[v];
  }
  in_list_.assign(edges_.size(), 0);
  in_source_list_.assign(edges_.size(), 0);
  out_list_.assign(edges_.size(), 0);
  std::vector<std::int32_t> in_fill(in_start_.begin(), in_start_.end() - 1);
  std::vector<std::int32_t> out_fill(out_start_.begin(), out_start_.end() - 1);
  for (EdgeId id = 0; id < edge_count(); ++id) {
    const Edge& e = edges_[static_cast<std::size_t>(id)];
    const std::int32_t in_pos = in_fill[static_cast<std::size_t>(e.target)]++;
    in_list_[static_cast<std::size_t>(in_pos)] = id;
    in_source_list_[static_cast<std::size_t>(in_pos)] = e.source;
    out_list_[static_cast<std::size_t>(
        out_fill[static_cast<std::size_t>(e.source)]++)] = id;
  }
  adjacency_valid_ = true;
}

std::span<const EdgeId> Digraph::in_edges(Vertex v) const {
  if (!adjacency_valid_) build_adjacency();
  auto begin = static_cast<std::size_t>(in_start_[static_cast<std::size_t>(v)]);
  auto end =
      static_cast<std::size_t>(in_start_[static_cast<std::size_t>(v) + 1]);
  return {in_list_.data() + begin, end - begin};
}

std::span<const EdgeId> Digraph::out_edges(Vertex v) const {
  if (!adjacency_valid_) build_adjacency();
  auto begin =
      static_cast<std::size_t>(out_start_[static_cast<std::size_t>(v)]);
  auto end =
      static_cast<std::size_t>(out_start_[static_cast<std::size_t>(v) + 1]);
  return {out_list_.data() + begin, end - begin};
}

int Digraph::indegree(Vertex v) const {
  return static_cast<int>(in_edges(v).size());
}

int Digraph::outdegree(Vertex v) const {
  return static_cast<int>(out_edges(v).size());
}

bool Digraph::has_edge(Vertex source, Vertex target) const {
  for (EdgeId id : out_edges(source)) {
    if (edge(id).target == target) return true;
  }
  return false;
}

int Digraph::edge_multiplicity(Vertex source, Vertex target) const {
  int count = 0;
  for (EdgeId id : out_edges(source)) {
    if (edge(id).target == target) ++count;
  }
  return count;
}

bool Digraph::has_all_self_loops() const {
  if (self_loops_cache_.get() < 0) {
    bool verdict = true;
    for (Vertex v = 0; v < vertex_count_; ++v) {
      if (!has_edge(v, v)) {
        verdict = false;
        break;
      }
    }
    self_loops_cache_.set(verdict);
  }
  return self_loops_cache_.get() != 0;
}

int Digraph::ensure_self_loops() {
  // One pass marks the looped vertices; the missing loops are appended in
  // vertex order without rebuilding the adjacency cache in between.
  std::vector<bool> looped(static_cast<std::size_t>(vertex_count_), false);
  for (const Edge& e : edges_) {
    if (e.source == e.target) looped[static_cast<std::size_t>(e.source)] = true;
  }
  int added = 0;
  for (Vertex v = 0; v < vertex_count_; ++v) {
    if (!looped[static_cast<std::size_t>(v)]) {
      edges_.push_back(Edge{v, v, kNoColor});
      ++added;
    }
  }
  if (added > 0) invalidate_caches();
  return added;
}

bool Digraph::is_symmetric() const {
  if (symmetric_cache_.get() < 0) {
    // multiplicity(v, j) == multiplicity(j, v) for every j exactly when v's
    // out-targets and in-sources are the same multiset: compare the two
    // sorted lists, O(E log maxdegree) in total.
    bool verdict = true;
    std::vector<Vertex> targets;
    std::vector<Vertex> sources;
    for (Vertex v = 0; v < vertex_count_ && verdict; ++v) {
      const auto out = out_edges(v);
      const auto in = in_edges(v);
      if (out.size() != in.size()) {
        verdict = false;
        break;
      }
      targets.clear();
      sources.clear();
      for (EdgeId id : out) targets.push_back(edge(id).target);
      for (EdgeId id : in) sources.push_back(edge(id).source);
      std::sort(targets.begin(), targets.end());
      std::sort(sources.begin(), sources.end());
      verdict = targets == sources;
    }
    symmetric_cache_.set(verdict);
  }
  return symmetric_cache_.get() != 0;
}

bool Digraph::has_valid_output_ports() const {
  if (output_ports_cache_.get() < 0) {
    bool verdict = true;
    // One scratch bitmap shared by all vertices (epoch-marked so it is never
    // cleared): out-edges of v must carry each port 1..outdegree(v) exactly
    // once. O(E) total, no sorting.
    int max_outdegree = 0;
    for (Vertex v = 0; v < vertex_count_; ++v) {
      max_outdegree = std::max(max_outdegree, outdegree(v));
    }
    std::vector<std::int32_t> seen_epoch(
        static_cast<std::size_t>(max_outdegree) + 1, -1);
    for (Vertex v = 0; v < vertex_count_ && verdict; ++v) {
      const auto out = out_edges(v);
      const int d = static_cast<int>(out.size());
      for (EdgeId id : out) {
        const int port = static_cast<int>(edge(id).color);
        if (port < 1 || port > d ||
            seen_epoch[static_cast<std::size_t>(port)] == v) {
          verdict = false;
          break;
        }
        seen_epoch[static_cast<std::size_t>(port)] = v;
      }
    }
    output_ports_cache_.set(verdict);
  }
  return output_ports_cache_.get() != 0;
}

Digraph Digraph::reversed() const {
  Digraph result(vertex_count_);
  for (const Edge& e : edges_) result.add_edge(e.target, e.source, e.color);
  return result;
}

void Digraph::assign_output_ports() {
  std::vector<EdgeColor> next_port(static_cast<std::size_t>(vertex_count_), 1);
  for (Edge& e : edges_) {
    e.color = next_port[static_cast<std::size_t>(e.source)]++;
  }
  invalidate_caches();
}

Digraph graph_product(const Digraph& g1, const Digraph& g2) {
  if (g1.vertex_count() != g2.vertex_count()) {
    throw std::invalid_argument("graph_product: vertex count mismatch");
  }
  const Vertex n = g1.vertex_count();
  Digraph result(n);
  std::vector<bool> reached(static_cast<std::size_t>(n));
  for (Vertex i = 0; i < n; ++i) {
    std::fill(reached.begin(), reached.end(), false);
    for (EdgeId e1 : g1.out_edges(i)) {
      Vertex k = g1.edge(e1).target;
      for (EdgeId e2 : g2.out_edges(k)) {
        reached[static_cast<std::size_t>(g2.edge(e2).target)] = true;
      }
    }
    for (Vertex j = 0; j < n; ++j) {
      if (reached[static_cast<std::size_t>(j)]) result.add_edge(i, j);
    }
  }
  return result;
}

bool is_complete_with_self_loops(const Digraph& g) {
  const Vertex n = g.vertex_count();
  for (Vertex i = 0; i < n; ++i) {
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (EdgeId id : g.out_edges(i)) {
      seen[static_cast<std::size_t>(g.edge(id).target)] = true;
    }
    for (Vertex j = 0; j < n; ++j) {
      if (!seen[static_cast<std::size_t>(j)]) return false;
    }
  }
  return true;
}

}  // namespace anonet
