#pragma once

// Adversarial dynamic-graph schedules for the campaign subsystem.
//
// The random schedules (schedules.hpp) have dynamic diameter close to their
// expectation almost every round; worst-case claims — Theorem 5.2's
// O(n^{2D}·D·log(1/ε)) Push-Sum bound, the n + D minimum-base stabilization
// of Sections 3.2/4.2 — are about the *maximum* over schedules of a class.
// These two adversaries pin the corners the random families never hit, in
// the spirit of the dynamic-network separations of Di Luna & Viglietta
// (PAPERS.md): a schedule that realizes a prescribed dynamic diameter D by
// maximally delaying cross-network information, and a schedule that is
// connected only in the union — no single round graph is connected — yet
// still has finite dynamic diameter.
//
// Every schedule here lends its round graphs from precomputed phase
// storage, so campaigns over them pay no per-round graph materialization.

#include <vector>

#include "dynamics/dynamic_graph.hpp"
#include "dynamics/schedules.hpp"

namespace anonet {

// Bounded-dynamic-diameter delay adversary ("spooner": a spoon-shaped round
// graph — a well-mixed bowl with one long handle it feeds only reluctantly).
//
// Vertices {0, ..., n-2} form a bidirectional star around hub 0 (the bowl:
// any bowl vertex reaches any other within 2 rounds through the hub). The
// handle vertex n-1 is attached through the bidirectional bridge
// {n-2, n-1}, but the adversary serves the bridge only on rounds that are
// multiples of `period` — every other round the handle is isolated (its
// self-loop only). Information between the handle and the rest of the
// network therefore waits up to `period` rounds at the bridge in each
// direction, which maximizes the information delay achievable for the
// resulting dynamic diameter D (measured: D = period + 2 for period >= 2;
// tests certify this with dynamics/connectivity.hpp). Every round graph is
// symmetric, so the schedule is admissible for every communication model
// and for kSymmetricOnly agents.
//
// Requires n >= 3 and period >= 1.
class SpoonerSchedule final : public DynamicGraph {
 public:
  SpoonerSchedule(Vertex n, int period);

  [[nodiscard]] Vertex vertex_count() const override { return n_; }
  // Lends one of the two precomputed phase graphs.
  [[nodiscard]] RoundGraphRef view(int t) const override;
  // True when round t carries the bridge to the handle vertex.
  [[nodiscard]] bool bridge_round(int t) const;
  [[nodiscard]] int period() const { return period_; }

 private:
  Vertex n_;
  int period_;
  Digraph with_bridge_;     // star + bridge + self-loops
  Digraph without_bridge_;  // star + isolated handle + self-loops
};

// Eventually-connected union adversary: a proper partition of a
// bidirectional ring's edges into `parts` groups, served round-robin — round
// t carries only the ring edges with index ≡ (t-1) (mod parts), both
// orientations, plus all self-loops. With parts >= 2 and n >= 4 every
// single round graph is disconnected (it is a partial matching of the
// ring), yet the union of any `parts` consecutive rounds is the full ring,
// so the dynamic diameter is finite (at most parts · n). This is the
// "connected only in the union" regime: algorithms that implicitly assume
// per-round connectivity (or per-round strong connectivity) break here
// while the paper's finite-dynamic-diameter machinery must not.
//
// Every round graph is symmetric. Requires n >= 2 and parts >= 1; rounds
// cycle deterministically, no randomness involved. A PeriodicSchedule over
// the parts: round t lends the stored graph of part (t - 1) mod parts.
class UnionRingSchedule final : public PeriodicSchedule {
 public:
  UnionRingSchedule(Vertex n, int parts);

  [[nodiscard]] int parts() const { return period(); }
};

// Weak-connectivity adversary with unboundedly growing silent gaps: the
// full bidirectional ring is served exactly on rounds that are powers of
// two (1, 2, 4, 8, ...); every other round every vertex is isolated (its
// self-loop only). The schedule is connected infinitely often — every
// finite suffix still contains a connected round — so it sits inside the
// weakest connectivity class the paper's eventual-stabilization results
// tolerate. But the gap between consecutive connected rounds doubles
// forever, so the dynamic diameter is *unbounded*: no function of n bounds
// the information delay, which is exactly the regime where round-counted
// convergence bounds (Theorem 5.2's Push-Sum rate, fixed round budgets)
// lose their footing while stabilization-style claims survive. The
// complement of UnionRingSchedule: there every round is disconnected but
// delay is bounded; here single rounds are fully connected but delay is
// not.
//
// Sibling of schedules.hpp's GrowingGapSchedule (bursts of a caller-chosen
// base graph with doubling gaps): this variant is campaign-friendly — fully
// determined by n, ring base, single-round bursts pinned to powers of two —
// so a campaign cell can name it as a schedule axis value with no extra
// parameters.
//
// Every round graph is symmetric (a ring or the empty graph plus
// self-loops), so the schedule is admissible for every communication model
// and for kSymmetricOnly agents. Requires n >= 2; deterministic.
class GrowingGapRingSchedule final : public DynamicGraph {
 public:
  explicit GrowingGapRingSchedule(Vertex n);

  [[nodiscard]] Vertex vertex_count() const override { return n_; }
  // Lends one of the two precomputed phase graphs.
  [[nodiscard]] RoundGraphRef view(int t) const override;
  // True when round t serves the ring (t a power of two).
  [[nodiscard]] static bool connected_round(int t);

 private:
  Vertex n_;
  Digraph ring_;  // bidirectional ring + self-loops
  Digraph idle_;  // self-loops only
};

}  // namespace anonet
