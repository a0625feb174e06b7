#include "dynamics/schedules.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

#include "graph/generators.hpp"
#include "support/counter_rng.hpp"

namespace anonet {

namespace {

// Per-round seeds, decorrelated by the SplitMix64 finalizer.
std::uint64_t mix_seed(std::uint64_t seed, int t) {
  return splitmix64(seed +
                    0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(t + 1));
}

}  // namespace

StaticSchedule::StaticSchedule(Digraph g) : graph_(std::move(g)) {
  graph_.ensure_self_loops();
}

RoundGraphRef StaticSchedule::view(int t) const {
  require_round(t);
  return RoundGraphRef(&graph_);
}

PeriodicSchedule::PeriodicSchedule(std::vector<Digraph> phases)
    : phases_(std::move(phases)) {
  if (phases_.empty()) {
    throw std::invalid_argument("PeriodicSchedule: need at least one phase");
  }
  for (Digraph& g : phases_) {
    if (g.vertex_count() != phases_.front().vertex_count()) {
      throw std::invalid_argument("PeriodicSchedule: vertex count mismatch");
    }
    g.ensure_self_loops();
  }
}

Vertex PeriodicSchedule::vertex_count() const {
  return phases_.front().vertex_count();
}

RoundGraphRef PeriodicSchedule::view(int t) const {
  require_round(t);
  return RoundGraphRef(&phases_[static_cast<std::size_t>(t - 1) % phases_.size()]);
}

RandomStronglyConnectedSchedule::RandomStronglyConnectedSchedule(
    Vertex n, int extra_edges, std::uint64_t seed)
    : n_(n), extra_edges_(extra_edges), seed_(seed) {
  if (n <= 0) {
    throw std::invalid_argument("RandomStronglyConnectedSchedule: n > 0");
  }
}

void RandomStronglyConnectedSchedule::build(int t, Digraph& into) const {
  random_strongly_connected(n_, extra_edges_, mix_seed(seed_, t), into);
}

RandomSymmetricSchedule::RandomSymmetricSchedule(Vertex n, int extra_pairs,
                                                 std::uint64_t seed)
    : n_(n), extra_pairs_(extra_pairs), seed_(seed) {
  if (n <= 0) throw std::invalid_argument("RandomSymmetricSchedule: n > 0");
}

void RandomSymmetricSchedule::build(int t, Digraph& into) const {
  random_symmetric_connected(n_, extra_pairs_, mix_seed(seed_, t), into);
}

TokenRingSchedule::TokenRingSchedule(Vertex n) : n_(n) {
  if (n <= 0) throw std::invalid_argument("TokenRingSchedule: n > 0");
}

void TokenRingSchedule::build(int t, Digraph& into) const {
  into.reset(n_);
  for (Vertex v = 0; v < n_; ++v) into.add_edge(v, v);
  if (n_ > 1) {
    const Vertex src = static_cast<Vertex>((t - 1) % n_);
    into.add_edge(src, (src + 1) % n_);
  }
}

RandomMatchingSchedule::RandomMatchingSchedule(Vertex n, std::uint64_t seed)
    : n_(n), seed_(seed) {
  if (n <= 0) throw std::invalid_argument("RandomMatchingSchedule: n > 0");
}

void RandomMatchingSchedule::build(int t, Digraph& into) const {
  std::mt19937_64 rng(mix_seed(seed_, t));
  std::vector<Vertex> order(static_cast<std::size_t>(n_));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  into.reset(n_);
  for (Vertex v = 0; v < n_; ++v) into.add_edge(v, v);
  // Pair consecutive vertices of the shuffled order; odd leftover stays
  // isolated this round (degree zero, footnote 2 of the paper).
  for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
    into.add_edge(order[i], order[i + 1]);
    into.add_edge(order[i + 1], order[i]);
  }
}

GrowingGapSchedule::GrowingGapSchedule(Digraph base, int burst_length,
                                       int initial_gap)
    : base_(std::move(base)),
      burst_length_(burst_length),
      initial_gap_(initial_gap) {
  if (burst_length <= 0 || initial_gap <= 0) {
    throw std::invalid_argument("GrowingGapSchedule: positive lengths only");
  }
  base_.ensure_self_loops();
  isolated_ = Digraph(base_.vertex_count());
  isolated_.ensure_self_loops();
}

bool GrowingGapSchedule::in_burst(int t) const {
  require_round(t);
  // Bursts start at 1, 1 + (burst + gap), 1 + 2*burst + 3*gap, ... with the
  // gap doubling each time.
  long long start = 1;
  long long gap = initial_gap_;
  while (start <= t) {
    if (t < start + burst_length_) return true;
    start += burst_length_ + gap;
    gap *= 2;
  }
  return false;
}

RoundGraphRef GrowingGapSchedule::view(int t) const {
  return RoundGraphRef(in_burst(t) ? &base_ : &isolated_);
}

AsyncStartSchedule::AsyncStartSchedule(DynamicGraphPtr inner,
                                       std::vector<int> start_rounds)
    : inner_(std::move(inner)), start_rounds_(std::move(start_rounds)) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("AsyncStartSchedule: null inner schedule");
  }
  if (start_rounds_.size() !=
      static_cast<std::size_t>(inner_->vertex_count())) {
    throw std::invalid_argument("AsyncStartSchedule: start_rounds size");
  }
}

void AsyncStartSchedule::build(int t, Digraph& into) const {
  const Digraph& inner = inner_->view(t).get();
  into.reset(inner.vertex_count());
  for (const Edge& e : inner.edges()) {
    const int needed =
        std::max(start_rounds_[static_cast<std::size_t>(e.source)],
                 start_rounds_[static_cast<std::size_t>(e.target)]);
    if (e.source == e.target || t >= needed) {
      into.add_edge(e.source, e.target, e.color);
    }
  }
  into.ensure_self_loops();
}

}  // namespace anonet
