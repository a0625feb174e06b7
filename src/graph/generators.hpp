#pragma once

// Graph families used throughout the paper's arguments and our experiments.
//
// Every generator returns a graph with a self-loop at each vertex, matching
// the model assumption of Section 2.1 (an agent always hears itself).

#include <cstdint>
#include <random>
#include <vector>

#include "graph/digraph.hpp"

namespace anonet {

// Unidirectional ring 0 -> 1 -> ... -> n-1 -> 0 (plus self-loops).
[[nodiscard]] Digraph directed_ring(Vertex n);

// Ring with both orientations of every ring edge; the R^n of Section 4.1.
[[nodiscard]] Digraph bidirectional_ring(Vertex n);

// Complete graph with self-loops.
[[nodiscard]] Digraph complete_graph(Vertex n);

// Bidirectional rows x cols torus grid.
[[nodiscard]] Digraph torus(Vertex rows, Vertex cols);

// Bidirectional hypercube on 2^dimension vertices.
[[nodiscard]] Digraph hypercube(int dimension);

// Directed de Bruijn graph B(symbols, word_length): vertices are words,
// edges shift one symbol in. Strongly connected, non-symmetric.
[[nodiscard]] Digraph de_bruijn(int symbols, int word_length);

// Random strongly connected digraph: a random Hamiltonian cycle plus
// `extra_edges` uniform random edges (duplicates allowed, giving parallel
// edges with small probability), plus self-loops.
[[nodiscard]] Digraph random_strongly_connected(Vertex n, int extra_edges,
                                                std::uint64_t seed);

// Random connected symmetric graph: a uniform random spanning tree with both
// edge orientations, plus `extra_pairs` random bidirectional pairs, plus
// self-loops. Each pair is emitted as two adjacent edges, (a, b) then
// (b, a), the order Digraph::is_symmetric checks in one pass.
[[nodiscard]] Digraph random_symmetric_connected(Vertex n, int extra_pairs,
                                                 std::uint64_t seed);

// The same two graphs built in place: `into` is reset to n vertices,
// reserves room for the graph's largest possible edge count, and receives
// the same edges, with the same ids, from the same random draws, reusing
// its storage (the per-round builds of the random schedules). The value
// forms above are wrappers over these.
void random_strongly_connected(Vertex n, int extra_edges, std::uint64_t seed,
                               Digraph& into);
void random_symmetric_connected(Vertex n, int extra_pairs, std::uint64_t seed,
                                Digraph& into);

// A graph together with a fibration onto a base: projection[v] is the base
// vertex below v. The witness for all lifting-lemma experiments.
struct LiftedGraph {
  Digraph graph;
  std::vector<Vertex> projection;
};

// Random lift of `base` with prescribed fibre sizes: for each base edge
// e : i -> j and each vertex v in the fibre over j, one lifted edge into v
// from a uniformly chosen vertex of the fibre over i (self-loop base edges
// lift to genuine self-loops so the model assumption is preserved). The
// projection is a fibration by construction. fibre_sizes must have one
// positive entry per base vertex.
//
// A random lift of a strongly connected base need not be strongly connected
// (a vertex may receive no non-loop out-edges), but the paper's network
// classes are: the generator therefore resamples, up to a few hundred
// attempts, until the lift is strongly connected, and returns the last
// attempt if none is found (callers in pathological regimes can check).
[[nodiscard]] LiftedGraph random_lift(const Digraph& base,
                                      const std::vector<int>& fibre_sizes,
                                      std::uint64_t seed);

// Covering lift: every fibre has size `fibre_size` and each base edge lifts
// to a random bijection between fibres, so out-neighbourhoods are in
// bijection too — the port-colored case of Section 4.3. Base edge colors are
// inherited and remain a valid local output labelling.
[[nodiscard]] LiftedGraph random_covering_lift(const Digraph& base,
                                               int fibre_size,
                                               std::uint64_t seed);

// The Section 4.1 fibration R^n -> R^p (p divides n), i |-> i mod p, on
// bidirectional rings. Returns the lift R^n with its projection.
[[nodiscard]] LiftedGraph ring_fibration(Vertex n, Vertex p);

}  // namespace anonet
