#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>

#include "graph/analysis.hpp"

namespace anonet {

namespace {

void require_positive(Vertex n, const char* who) {
  if (n <= 0) throw std::invalid_argument(std::string(who) + ": need n > 0");
}

}  // namespace

Digraph directed_ring(Vertex n) {
  require_positive(n, "directed_ring");
  Digraph g(n);
  for (Vertex v = 0; v < n; ++v) {
    g.add_edge(v, v);
    if (n > 1) g.add_edge(v, (v + 1) % n);
  }
  return g;
}

Digraph bidirectional_ring(Vertex n) {
  require_positive(n, "bidirectional_ring");
  Digraph g(n);
  for (Vertex v = 0; v < n; ++v) g.add_edge(v, v);
  if (n == 2) {
    g.add_edge(0, 1);
    g.add_edge(1, 0);
    return g;
  }
  for (Vertex v = 0; n > 1 && v < n; ++v) {
    g.add_edge(v, (v + 1) % n);
    g.add_edge((v + 1) % n, v);
  }
  return g;
}

Digraph complete_graph(Vertex n) {
  require_positive(n, "complete_graph");
  Digraph g(n);
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = 0; j < n; ++j) g.add_edge(i, j);
  }
  return g;
}

Digraph torus(Vertex rows, Vertex cols) {
  require_positive(rows, "torus");
  require_positive(cols, "torus");
  Digraph g(rows * cols);
  auto id = [cols](Vertex r, Vertex c) { return r * cols + c; };
  for (Vertex r = 0; r < rows; ++r) {
    for (Vertex c = 0; c < cols; ++c) {
      g.add_edge(id(r, c), id(r, c));
      if (rows > 1) {
        g.add_edge(id(r, c), id((r + 1) % rows, c));
        g.add_edge(id((r + 1) % rows, c), id(r, c));
      }
      if (cols > 1) {
        g.add_edge(id(r, c), id(r, (c + 1) % cols));
        g.add_edge(id(r, (c + 1) % cols), id(r, c));
      }
    }
  }
  return g;
}

Digraph hypercube(int dimension) {
  if (dimension < 0 || dimension > 20) {
    throw std::invalid_argument("hypercube: dimension out of range");
  }
  const Vertex n = Vertex{1} << dimension;
  Digraph g(n);
  for (Vertex v = 0; v < n; ++v) {
    g.add_edge(v, v);
    for (int bit = 0; bit < dimension; ++bit) {
      Vertex u = v ^ (Vertex{1} << bit);
      if (v < u) {
        g.add_edge(v, u);
        g.add_edge(u, v);
      }
    }
  }
  return g;
}

Digraph de_bruijn(int symbols, int word_length) {
  if (symbols < 2 || word_length < 1) {
    throw std::invalid_argument("de_bruijn: need symbols >= 2, length >= 1");
  }
  Vertex n = 1;
  for (int i = 0; i < word_length; ++i) n *= symbols;
  Digraph g(n);
  for (Vertex v = 0; v < n; ++v) {
    for (int s = 0; s < symbols; ++s) {
      Vertex u = (v * symbols + s) % n;
      if (u != v) g.add_edge(v, u);
    }
  }
  g.ensure_self_loops();
  return g;
}

Digraph random_strongly_connected(Vertex n, int extra_edges,
                                  std::uint64_t seed) {
  Digraph g;
  random_strongly_connected(n, extra_edges, seed, g);
  return g;
}

void random_strongly_connected(Vertex n, int extra_edges, std::uint64_t seed,
                               Digraph& into) {
  require_positive(n, "random_strongly_connected");
  std::mt19937_64 rng(seed);
  std::vector<Vertex> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  into.reset(n);
  const auto vertices = static_cast<std::size_t>(n);
  into.reserve((n > 1 ? 2 * vertices : vertices) +
               static_cast<std::size_t>(std::max(extra_edges, 0)));
  for (Vertex v = 0; v < n; ++v) into.add_edge(v, v);
  if (n > 1) {
    for (Vertex i = 0; i < n; ++i) {
      into.add_edge(order[static_cast<std::size_t>(i)],
                    order[static_cast<std::size_t>((i + 1) % n)]);
    }
  }
  std::uniform_int_distribution<Vertex> pick(0, n - 1);
  for (int i = 0; i < extra_edges; ++i) {
    Vertex a = pick(rng);
    Vertex b = pick(rng);
    if (a != b) into.add_edge(a, b);
  }
}

Digraph random_symmetric_connected(Vertex n, int extra_pairs,
                                   std::uint64_t seed) {
  Digraph g;
  random_symmetric_connected(n, extra_pairs, seed, g);
  return g;
}

void random_symmetric_connected(Vertex n, int extra_pairs, std::uint64_t seed,
                                Digraph& into) {
  require_positive(n, "random_symmetric_connected");
  std::mt19937_64 rng(seed);
  into.reset(n);
  into.reserve(3 * static_cast<std::size_t>(n) - 2 +
               2 * static_cast<std::size_t>(std::max(extra_pairs, 0)));
  for (Vertex v = 0; v < n; ++v) into.add_edge(v, v);
  // Random attachment tree: vertex v links to a uniform earlier vertex.
  std::vector<Vertex> parent(static_cast<std::size_t>(n), -1);
  for (Vertex v = 1; v < n; ++v) {
    std::uniform_int_distribution<Vertex> pick(0, v - 1);
    Vertex u = pick(rng);
    parent[static_cast<std::size_t>(v)] = u;
    into.add_edge(u, v);
    into.add_edge(v, u);
  }
  // a -> b already exists when a and b are tree neighbours or an extra pair
  // drawn earlier; answering from those two records instead of the graph
  // spares a full adjacency rebuild per probe.
  std::set<std::pair<Vertex, Vertex>> extras;
  std::uniform_int_distribution<Vertex> pick(0, n - 1);
  for (int i = 0; i < extra_pairs; ++i) {
    Vertex a = pick(rng);
    Vertex b = pick(rng);
    const bool tree_pair = parent[static_cast<std::size_t>(a)] == b ||
                           parent[static_cast<std::size_t>(b)] == a;
    if (a == b || tree_pair) continue;
    if (!extras.emplace(std::min(a, b), std::max(a, b)).second) continue;
    into.add_edge(a, b);
    into.add_edge(b, a);
  }
}

namespace {

// One sampling attempt for random_lift (see header).
LiftedGraph random_lift_once(const Digraph& base,
                             const std::vector<int>& fibre_sizes,
                             std::mt19937_64& rng) {
  // Lay fibres out contiguously.
  std::vector<Vertex> fibre_start(fibre_sizes.size() + 1, 0);
  for (std::size_t i = 0; i < fibre_sizes.size(); ++i) {
    if (fibre_sizes[i] <= 0) {
      throw std::invalid_argument("random_lift: fibre sizes must be positive");
    }
    fibre_start[i + 1] = fibre_start[i] + fibre_sizes[i];
  }
  const Vertex total = fibre_start.back();
  Digraph lift(total);
  std::vector<Vertex> projection(static_cast<std::size_t>(total));
  for (std::size_t i = 0; i < fibre_sizes.size(); ++i) {
    for (Vertex v = fibre_start[i]; v < fibre_start[i + 1]; ++v) {
      projection[static_cast<std::size_t>(v)] = static_cast<Vertex>(i);
    }
  }
  // Self-loop base edges lift to genuine self-loops (see header); for the
  // rest, distribute sources round-robin over a shuffled fibre so out-edges
  // spread as evenly as possible — a uniform i.i.d. choice would leave some
  // fibre vertices without any out-edge almost surely, making a strongly
  // connected sample unreachable.
  std::vector<std::vector<std::pair<Vertex, EdgeColor>>> slots(
      fibre_sizes.size());  // per base vertex: (lift target, color) list
  for (const Edge& e : base.edges()) {
    auto tgt = static_cast<std::size_t>(e.target);
    for (Vertex v = fibre_start[tgt]; v < fibre_start[tgt + 1]; ++v) {
      if (e.source == e.target) {
        lift.add_edge(v, v, e.color);
      } else {
        slots[static_cast<std::size_t>(e.source)].emplace_back(v, e.color);
      }
    }
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    auto& targets = slots[i];
    std::shuffle(targets.begin(), targets.end(), rng);
    std::vector<Vertex> sources;
    for (Vertex u = fibre_start[i]; u < fibre_start[i + 1]; ++u) {
      sources.push_back(u);
    }
    std::shuffle(sources.begin(), sources.end(), rng);
    for (std::size_t k = 0; k < targets.size(); ++k) {
      lift.add_edge(sources[k % sources.size()], targets[k].first,
                    targets[k].second);
    }
  }
  return {std::move(lift), std::move(projection)};
}

// One sampling attempt for random_covering_lift (see header).
LiftedGraph random_covering_lift_once(const Digraph& base, int fibre_size,
                                      std::mt19937_64& rng) {
  const Vertex m = base.vertex_count();
  const Vertex total = m * fibre_size;
  Digraph lift(total);
  std::vector<Vertex> projection(static_cast<std::size_t>(total));
  auto member = [fibre_size](Vertex base_vertex, int index) {
    return base_vertex * fibre_size + index;
  };
  for (Vertex b = 0; b < m; ++b) {
    for (int k = 0; k < fibre_size; ++k) {
      projection[static_cast<std::size_t>(member(b, k))] = b;
    }
  }
  std::vector<int> bijection(static_cast<std::size_t>(fibre_size));
  for (const Edge& e : base.edges()) {
    if (e.source == e.target) {
      for (int k = 0; k < fibre_size; ++k) {
        lift.add_edge(member(e.source, k), member(e.source, k), e.color);
      }
      continue;
    }
    std::iota(bijection.begin(), bijection.end(), 0);
    std::shuffle(bijection.begin(), bijection.end(), rng);
    for (int k = 0; k < fibre_size; ++k) {
      lift.add_edge(member(e.source, bijection[static_cast<std::size_t>(k)]),
                    member(e.target, k), e.color);
    }
  }
  return {std::move(lift), std::move(projection)};
}

// Resamples until the lift is strongly connected (see header).
template <typename Sampler>
LiftedGraph sample_connected_lift(Sampler sample, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  LiftedGraph lift;
  for (int attempt = 0; attempt < 500; ++attempt) {
    lift = sample(rng);
    if (is_strongly_connected(lift.graph)) return lift;
  }
  return lift;
}

}  // namespace

LiftedGraph random_lift(const Digraph& base,
                        const std::vector<int>& fibre_sizes,
                        std::uint64_t seed) {
  if (static_cast<Vertex>(fibre_sizes.size()) != base.vertex_count()) {
    throw std::invalid_argument("random_lift: fibre_sizes size mismatch");
  }
  return sample_connected_lift(
      [&](std::mt19937_64& rng) {
        return random_lift_once(base, fibre_sizes, rng);
      },
      seed);
}

LiftedGraph random_covering_lift(const Digraph& base, int fibre_size,
                                 std::uint64_t seed) {
  if (fibre_size <= 0) {
    throw std::invalid_argument(
        "random_covering_lift: fibre_size must be > 0");
  }
  return sample_connected_lift(
      [&](std::mt19937_64& rng) {
        return random_covering_lift_once(base, fibre_size, rng);
      },
      seed);
}

LiftedGraph ring_fibration(Vertex n, Vertex p) {
  if (p <= 0 || n <= 0 || n % p != 0) {
    throw std::invalid_argument("ring_fibration: p must divide n");
  }
  LiftedGraph result;
  result.graph = bidirectional_ring(n);
  result.projection.resize(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    result.projection[static_cast<std::size_t>(v)] = v % p;
  }
  return result;
}

}  // namespace anonet
