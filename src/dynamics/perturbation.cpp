#include "dynamics/perturbation.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

namespace anonet {

namespace {

void require_positive(Vertex n, const char* who) {
  if (n <= 0) throw std::invalid_argument(std::string(who) + ": n > 0");
}

}  // namespace

StartSchedule StartSchedule::staggered(Vertex n, int stride) {
  if (n <= 0 || stride < 0) {
    throw std::invalid_argument("StartSchedule::staggered: n > 0, stride >= 0");
  }
  StartSchedule s;
  s.wake_rounds.resize(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    s.wake_rounds[static_cast<std::size_t>(v)] = 1 + stride * v;
  }
  return s;
}

StartSchedule StartSchedule::straggler(Vertex n, int wake_round) {
  if (n <= 0 || wake_round < 1) {
    throw std::invalid_argument(
        "StartSchedule::straggler: n > 0, wake_round >= 1");
  }
  StartSchedule s;
  s.wake_rounds.assign(static_cast<std::size_t>(n), 1);
  s.wake_rounds.back() = wake_round;
  return s;
}

FaultPlan FaultPlan::crash_first_agent(Vertex n, int round) {
  if (n <= 0 || round < 1) {
    throw std::invalid_argument("FaultPlan::crash_first_agent: bad arguments");
  }
  FaultPlan plan;
  plan.crash_rounds.assign(static_cast<std::size_t>(n), 0);
  plan.crash_rounds.front() = round;
  return plan;
}

FaultPlan FaultPlan::drop(double rate, std::uint64_t seed) {
  FaultPlan plan;
  plan.drop_rate = rate;
  plan.drop_seed = seed;
  return plan;
}

std::uint64_t drop_threshold(double rate) {
  if (!(rate > 0.0)) return 0;
  if (rate >= 1.0) return ~0ull;
  // Scale into the u64 draw range; ldexp keeps the full 53-bit precision.
  return static_cast<std::uint64_t>(std::ldexp(rate, 64));
}

ChurnSchedule::ChurnSchedule(DynamicGraphPtr inner, int epoch_length,
                             double churn_rate, std::uint64_t seed)
    : inner_(std::move(inner)),
      epoch_length_(epoch_length),
      leave_threshold_(drop_threshold(churn_rate)),
      seed_(seed) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("ChurnSchedule: null inner schedule");
  }
  if (epoch_length <= 0) {
    throw std::invalid_argument("ChurnSchedule: epoch_length > 0");
  }
  if (churn_rate < 0.0 || churn_rate >= 1.0) {
    throw std::invalid_argument("ChurnSchedule: churn_rate in [0, 1)");
  }
}

bool ChurnSchedule::present(Vertex v, int t) const {
  require_round(t);
  const int epoch = (t - 1) / epoch_length_;
  // Epoch 0 is the warm-up with everyone on; vertex 0 anchors the overlay.
  if (epoch == 0 || v == 0) return true;
  return CounterRng(seed_, static_cast<std::uint64_t>(epoch),
                    static_cast<std::uint64_t>(v))() >= leave_threshold_;
}

void ChurnSchedule::build(int t, Digraph& into) const {
  const Digraph& inner = inner_->view(t).get();
  into.reset(inner.vertex_count());
  for (const Edge& e : inner.edges()) {
    if (e.source == e.target ||
        (present(e.source, t) && present(e.target, t))) {
      into.add_edge(e.source, e.target, e.color);
    }
  }
  into.ensure_self_loops();
}

Digraph preferential_attachment_graph(Vertex n, int m, std::uint64_t seed) {
  require_positive(n, "preferential_attachment_graph");
  if (m < 1) {
    throw std::invalid_argument("preferential_attachment_graph: m >= 1");
  }
  std::mt19937_64 rng(seed);
  Digraph g(n);
  for (Vertex v = 0; v < n; ++v) g.add_edge(v, v);
  // Classic endpoint-list trick: sampling a uniform element of `endpoints`
  // is sampling a vertex proportionally to its (undirected) degree.
  std::vector<Vertex> endpoints;
  std::vector<Vertex> picked;
  for (Vertex v = 1; v < n; ++v) {
    const int links = std::min<int>(m, v);
    picked.clear();
    while (static_cast<int>(picked.size()) < links) {
      Vertex target;
      if (endpoints.empty()) {
        target = 0;
      } else {
        std::uniform_int_distribution<std::size_t> pick(0,
                                                        endpoints.size() - 1);
        target = endpoints[pick(rng)];
      }
      if (std::find(picked.begin(), picked.end(), target) == picked.end()) {
        picked.push_back(target);
      }
    }
    for (Vertex target : picked) {
      g.add_edge(v, target);
      g.add_edge(target, v);
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  return g;
}

Digraph random_geometric_graph(Vertex n, double radius, std::uint64_t seed) {
  require_positive(n, "random_geometric_graph");
  if (!(radius > 0.0)) {
    throw std::invalid_argument("random_geometric_graph: radius > 0");
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    x[static_cast<std::size_t>(v)] = coord(rng);
    y[static_cast<std::size_t>(v)] = coord(rng);
  }
  const auto dist2 = [&](Vertex a, Vertex b) {
    const double dx = x[static_cast<std::size_t>(a)] -
                      x[static_cast<std::size_t>(b)];
    const double dy = y[static_cast<std::size_t>(a)] -
                      y[static_cast<std::size_t>(b)];
    return dx * dx + dy * dy;
  };
  Digraph g(n);
  for (Vertex v = 0; v < n; ++v) g.add_edge(v, v);
  const double r2 = radius * radius;
  for (Vertex a = 0; a < n; ++a) {
    for (Vertex b = static_cast<Vertex>(a + 1); b < n; ++b) {
      if (dist2(a, b) <= r2) {
        g.add_edge(a, b);
        g.add_edge(b, a);
      }
    }
  }
  // Connectivity backbone: link every vertex to its geometrically nearest
  // predecessor (deterministic given the positions), so sparse placements
  // still form one component instead of radius-dependent islands.
  for (Vertex v = 1; v < n; ++v) {
    Vertex nearest = 0;
    for (Vertex u = 1; u < v; ++u) {
      if (dist2(v, u) < dist2(v, nearest)) nearest = u;
    }
    if (!g.has_edge(v, nearest)) {
      g.add_edge(v, nearest);
      g.add_edge(nearest, v);
    }
  }
  return g;
}

namespace {

// Shared churn parameters for the campaign factories: epochs long enough
// that a protocol makes progress inside one, churn heavy enough that most
// epochs lose somebody.
constexpr int kChurnEpochLength = 8;
constexpr double kChurnRate = 0.25;

}  // namespace

DynamicGraphPtr preferential_churn_schedule(Vertex n, std::uint64_t seed) {
  auto base = std::make_shared<StaticSchedule>(
      preferential_attachment_graph(n, /*m=*/2, seed));
  return std::make_shared<ChurnSchedule>(std::move(base), kChurnEpochLength,
                                         kChurnRate, seed ^ 0xc4ceb9fe1a85ec53ull);
}

DynamicGraphPtr geometric_churn_schedule(Vertex n, std::uint64_t seed) {
  // Radius targeting ~8 expected neighbors; the backbone keeps small or
  // unlucky placements connected regardless.
  const double radius =
      std::sqrt(2.5 / static_cast<double>(std::max<Vertex>(n, 2)));
  auto base = std::make_shared<StaticSchedule>(
      random_geometric_graph(n, radius, seed));
  return std::make_shared<ChurnSchedule>(std::move(base), kChurnEpochLength,
                                         kChurnRate, seed ^ 0xff51afd7ed558ccdull);
}

}  // namespace anonet
