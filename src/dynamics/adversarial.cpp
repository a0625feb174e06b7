#include "dynamics/adversarial.hpp"

#include <stdexcept>

namespace anonet {

SpoonerSchedule::SpoonerSchedule(Vertex n, int period)
    : n_(n), period_(period) {
  if (n < 3) {
    throw std::invalid_argument(
        "SpoonerSchedule: need n >= 3 (bowl of at least two plus the handle)");
  }
  if (period < 1) throw std::invalid_argument("SpoonerSchedule: period >= 1");
  Digraph star(n_);
  for (Vertex v = 0; v < n_; ++v) star.add_edge(v, v);
  for (Vertex v = 1; v < n_ - 1; ++v) {
    star.add_edge(0, v);
    star.add_edge(v, 0);
  }
  without_bridge_ = star;
  star.add_edge(n_ - 2, n_ - 1);
  star.add_edge(n_ - 1, n_ - 2);
  with_bridge_ = std::move(star);
}

bool SpoonerSchedule::bridge_round(int t) const {
  require_round(t);
  return t % period_ == 0;
}

RoundGraphRef SpoonerSchedule::view(int t) const {
  return RoundGraphRef(bridge_round(t) ? &with_bridge_ : &without_bridge_);
}

namespace {

// The ring's edges in `parts` groups, each a graph with every self-loop:
// ring edge i connects i and i+1 (mod n), and part p serves edges i ≡ p.
std::vector<Digraph> union_ring_parts(Vertex n, int parts) {
  if (n < 2) throw std::invalid_argument("UnionRingSchedule: need n >= 2");
  if (parts < 1) throw std::invalid_argument("UnionRingSchedule: parts >= 1");
  std::vector<Digraph> phases;
  phases.reserve(static_cast<std::size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    Digraph g(n);
    for (Vertex v = 0; v < n; ++v) g.add_edge(v, v);
    for (Vertex i = p; i < n; i += parts) {
      const Vertex j = (i + 1) % n;
      g.add_edge(i, j);
      g.add_edge(j, i);
    }
    phases.push_back(std::move(g));
  }
  return phases;
}

}  // namespace

UnionRingSchedule::UnionRingSchedule(Vertex n, int parts)
    : PeriodicSchedule(union_ring_parts(n, parts)) {}

GrowingGapRingSchedule::GrowingGapRingSchedule(Vertex n) : n_(n) {
  if (n < 2) throw std::invalid_argument("GrowingGapRingSchedule: need n >= 2");
  Digraph ring(n_);
  Digraph idle(n_);
  for (Vertex v = 0; v < n_; ++v) {
    ring.add_edge(v, v);
    idle.add_edge(v, v);
  }
  for (Vertex v = 0; v + 1 < n_; ++v) {
    ring.add_edge(v, v + 1);
    ring.add_edge(v + 1, v);
  }
  if (n_ > 2) {  // closing edge; n == 2 is already the complete ring
    ring.add_edge(n_ - 1, 0);
    ring.add_edge(0, n_ - 1);
  }
  ring_ = std::move(ring);
  idle_ = std::move(idle);
}

bool GrowingGapRingSchedule::connected_round(int t) {
  require_round(t);
  return (t & (t - 1)) == 0;  // powers of two (round numbering starts at 1)
}

RoundGraphRef GrowingGapRingSchedule::view(int t) const {
  return RoundGraphRef(connected_round(t) ? &ring_ : &idle_);
}

}  // namespace anonet
